package perfbench

import scala.collection.mutable
import scala.util.control.NonFatal

/** Benchmark entry point. One run sets up one workload, checks every
  * output against its reference, and prints the metrics as the last
  * line of standard output: the end-to-end metrics with `--trace 0`,
  * the per-layer metrics of a traced rebuild with `--trace 1`.
  * `--self-test` only checks the benchmark's own checks; `--reference`
  * also computes and caches the workload's reference.
  *
  * {{{
  * perfbench.Main --workload med-plan --seed 61 --seconds 40 --trace 0
  *   [--threads 2] [--shuffle-partitions 16] [--reference] [--self-test]
  * }}}
  */
object Main {

  /** Every per-layer metric a traced run prints; a layer its workload
    * does not reach reads 0.
    */
  val PerLayer: Seq[(String, String)] = Seq(
    "order.s" -> "s", "order.keys" -> "count",
    "sig.context_s" -> "s", "sig.select_s" -> "s", "sig.pebbles_mean" -> "count", "sig.len_mean" -> "count",
    "filter.s" -> "s", "filter.processed_pairs" -> "count", "filter.candidates" -> "count",
    "filter.ns_per_processed_pair" -> "ns",
    "graph.s" -> "s", "graph.us_p50" -> "us", "graph.us_p99" -> "us", "graph.vertices_mean" -> "count",
    "graph.vertices_max" -> "count", "graph.over_talon_limit" -> "count",
    "mis.s" -> "s", "mis.us_p50" -> "us", "mis.us_p99" -> "us", "mis.singles_only_share" -> "ratio",
    "verify.s" -> "s", "verify.self_s" -> "s", "verify.results" -> "count", "verify.yield" -> "ratio",
    "calibrate.s" -> "s", "calibrate.cf_ns" -> "ns", "calibrate.cv_ns" -> "ns",
    "suggest.s" -> "s", "suggest.iterations" -> "count", "suggest.tau" -> "count",
    "suggest.t_hat_rel_err" -> "ratio", "suggest.v_hat_rel_err" -> "ratio",
    "spark.order_s" -> "s", "spark.candidates_s" -> "s", "spark.verify_s" -> "s", "spark.tasks" -> "count",
    "spark.task_run_s" -> "s", "spark.task_cpu_s" -> "s", "spark.gc_s" -> "s",
    "spark.shuffle_write_mb" -> "MB", "spark.shuffle_read_mb" -> "MB", "spark.verify_stage_tasks" -> "count",
    "spark.verify_task_skew" -> "ratio",
    "heap.peak_mb" -> "MB", "trace.wall_s" -> "s", "trace.overhead_s" -> "s", "trace.uncovered_s" -> "s",
  )

  /** Set-up is repeated this often in an untimed run; its median is reported. */
  val SetupRounds = 9
  /** Untimed warm-up: at least this many operations and this share of the run's seconds. */
  val WarmupReps = 1
  val WarmupShare = 0.2
  val MinReps = 5
  val MaxReps = 200

  final case class Report(attempted: Int, failed: Int, metrics: Metrics)

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val settings = Settings(
      seed = opts.getOrElse("seed", "61").toLong,
      seconds = opts.getOrElse("seconds", "40").toDouble,
      threads = math.min(opts.getOrElse("threads", "2").toInt, Runtime.getRuntime.availableProcessors),
      shufflePartitions = opts.getOrElse("shuffle-partitions", "16").toInt)
    val name = opts.getOrElse("workload", "")
    require(opts.contains("self-test") || Workload.names.contains(name),
      s"unknown workload '$name'; one of ${Workload.names.mkString(", ")}")
    if (opts.contains("self-test")) {
      SelfTest.run(settings)
      return
    }
    if (opts.contains("reference")) {
      // Runs in a JVM of its own before a timed run, so that a brute
      // force leaves no trace in the timed process.
      val w = Workload(name, settings)
      w.generate()
      w.prepare()
      return
    }
    val traced = opts.getOrElse("trace", "0") == "1"
    println(s"perfbench $name seed=${settings.seed} seconds=${settings.seconds} trace=${if (traced) 1 else 0} " +
      s"threads=${settings.threads} shuffle_partitions=${settings.shufflePartitions}")
    val w = Workload(name, settings)
    val report =
      try if (traced) tracedRun(w, settings) else timedRun(w, settings)
      finally w.close()
    report.metrics.all.foreach { case (n, v, u) => println(f"metric $n%-30s $v%.6f $u") }
    SelfTest.run(settings)
    println(json(report))
  }

  private def parse(args: Array[String]): Map[String, String] = {
    val out = mutable.LinkedHashMap[String, String]()
    var i = 0
    while (i < args.length) {
      require(args(i).startsWith("--"), s"unexpected argument ${args(i)}")
      val key = args(i).drop(2)
      if (i + 1 < args.length && !args(i + 1).startsWith("--")) { out(key) = args(i + 1); i += 2 }
      else { out(key) = ""; i += 1 }
    }
    out.toMap
  }

  /** Set-up several times, run the operation untimed so lazy set-up
    * and JIT compilation finish, then time it until `seconds` have
    * passed (at least `MinReps` times), checking every output.
    */
  def timedRun(w: Workload, s: Settings): Report = {
    val setups = (1 to SetupRounds).map(_ => Meters.measure(w.setUp())._2.wallNanos / 1e9)
    val t0 = System.nanoTime()
    w.prepare()
    val warm = System.nanoTime()
    var warmups = 0
    while (warmups < WarmupReps || System.nanoTime() - warm < WarmupShare * s.seconds * 1e9) {
      w.run()
      warmups += 1
    }
    val samples = mutable.ArrayBuffer[Sample]()
    val outcomes = mutable.ArrayBuffer[Outcome]()
    var attempted = 0
    var failed = 0
    val start = System.nanoTime()
    println(f"set-up ${setups.map(x => f"$x%.3f").mkString(" ")} s; " +
      f"reference ${(warm - t0) / 1e9}%.1f s, $warmups warm-up runs ${(start - warm) / 1e9}%.1f s")
    while (attempted < MinReps || (System.nanoTime() - start < s.seconds * 1e9 && attempted < MaxReps)) {
      attempted += 1
      try {
        val (out, sample) = Meters.measure(w.run())
        val (outcome, checkNanos) = Meters.time(w.check(out))
        println(f"rep $attempted: wall ${sample.wallNanos / 1e9}%.3f s, cpu ${sample.cpuNanos / 1e9}%.3f s, " +
          f"heap ${sample.heapPeakBytes / 1048576.0}%.1f MB, check ${checkNanos / 1e9}%.3f s, " +
          f"fingerprint ${outcome.fingerprint}, recall ${outcome.recall}%.4f, spurious ${outcome.spurious}" +
          (if (outcome.ok) "" else s", FAILED: ${outcome.problems.mkString("; ")}"))
        if (outcome.ok) samples += sample else failed += 1
        outcomes += outcome
      } catch {
        case NonFatal(e) =>
          failed += 1
          println(s"rep $attempted: FAILED with $e")
          e.printStackTrace()
      }
    }
    val m = new Metrics
    def med(f: Sample => Double): Double = if (samples.isEmpty) 0.0 else Stats.median(samples.map(f).toSeq)
    m("wall_s") = (med(_.wallNanos / 1e9), "s")
    m("cpu_s") = (med(_.cpuNanos / 1e9), "s")
    m("setup_s") = (Stats.median(setups), "s")
    m("recall") = (if (outcomes.isEmpty) 0.0 else Stats.median(outcomes.map(_.recall).toSeq), "ratio")
    println(s"spurious_pairs ${outcomes.map(_.spurious).maxOption.getOrElse(0L)} pairs; " +
      f"fail_share ${failed.toDouble / attempted}%.4f ($failed of $attempted runs)")
    Report(attempted, failed, m)
  }

  /** After an untimed warm-up, the untraced operation once, then its
    * traced rebuild; both outputs are checked and must have the same
    * fingerprint.
    */
  def tracedRun(w: Workload, s: Settings): Report = {
    w.setUp()
    w.prepare()
    w.run()
    val m = new Metrics
    var failed = 0
    val (plain, plainSample) = Meters.measure(w.run())
    val plainOutcome = w.check(plain)
    val tr = new Tracer
    val (traced, tracedSample) = Meters.measure(tr.group(w.name)(w.traced(tr, m)))
    val tracedOutcome = w.check(traced)
    for ((label, o) <- Seq("untraced" -> plainOutcome, "traced" -> tracedOutcome)) {
      println(s"$label: fingerprint ${o.fingerprint}, recall ${o.recall}, spurious ${o.spurious}" +
        (if (o.ok) "" else s", FAILED: ${o.problems.mkString("; ")}"))
      if (!o.ok) failed += 1
    }
    if (plainOutcome.fingerprint != tracedOutcome.fingerprint) {
      println(s"FAILED: traced pipeline fingerprint ${tracedOutcome.fingerprint} differs from " +
        s"${plainOutcome.fingerprint}")
      failed = math.max(failed, 1)
    }
    m("heap.peak_mb") = (plainSample.heapPeakBytes / 1048576.0, "MB")
    m("trace.wall_s") = (tracedSample.wallNanos / 1e9, "s")
    m("trace.overhead_s") = (tr.seconds(w.tracedSpan) - plainSample.wallNanos / 1e9, "s")
    m("trace.uncovered_s") = (tr.uncoveredSeconds, "s")
    tr.write(Dirs.trace.resolve(s"${w.name}-s${s.seed}.jsonl"))
    val full = new Metrics
    for ((n, u) <- PerLayer) full(n) = (m.get(n).getOrElse(0.0), u)
    Report(2, failed, full)
  }

  private def number(v: Double): String =
    if (v.isNaN || v.isInfinite) "0" else v.toString

  def json(r: Report): String = {
    val metrics = r.metrics.all.map { case (n, v, u) =>
      s""""$n": {"value": ${number(v)}, "unit": "$u"}"""
    }.mkString(", ")
    s"""{"correct": ${r.failed == 0}, "attempted": ${r.attempted}, "failed": ${r.failed}, "metrics": {$metrics}}"""
  }
}
