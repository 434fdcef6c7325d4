package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.data.TextGen
import repro.join._
import repro.tune.{CostModel, TauSuggest}

/** The workloads' operations rebuilt from the program's public parts,
  * with a span around each call into a layer and counts taken at the
  * same boundaries. Each does what the untraced operation does.
  */
object Pipelines {

  private def signatures(tr: Tracer, m: Metrics, k: Knowledge, strings: IndexedSeq[String],
      order: Map[String, Int]): IndexedSeq[Set[String]] = {
    val cfg = Join.Cfg
    val ctxs = tr.span("sig.context") {
      strings.map(s => new SignatureContext(Tokenizer.tokens(s), k, cfg.measures, cfg.q, order))
    }
    val sigs = tr.span("sig.select")(ctxs.map(_.select(cfg.algo, cfg.theta, cfg.tau)))
    m("sig.context_s") = (tr.seconds("sig.context"), "s")
    m("sig.select_s") = (tr.seconds("sig.select"), "s")
    m("sig.pebbles_mean") = (Stats.mean(ctxs.map(_.n.toDouble)), "count")
    m("sig.len_mean") = (Stats.mean(sigs.map(_.size.toDouble)), "count")
    sigs
  }

  private def order(tr: Tracer, m: Metrics, k: Knowledge, strings: IndexedSeq[String]): Map[String, Int] = {
    val o = tr.span("order")(LocalJoin.buildOrder(k, strings, Join.Cfg.measures, Join.Cfg.q))
    m("order.s") = (tr.seconds("order"), "s")
    m("order.keys") = (o.size.toDouble, "count")
    o
  }

  private def filter(tr: Tracer, m: Metrics, sigs: IndexedSeq[Set[String]]): (Long, Vector[(Int, Int)]) = {
    val (processed, cands) = tr.span("filter")(LocalJoin.filterStage(sigs, sigs, Join.Tau, selfJoin = true))
    m("filter.s") = (tr.seconds("filter"), "s")
    m("filter.processed_pairs") = (processed.toDouble, "count")
    m("filter.candidates") = (cands.length.toDouble, "count")
    m("filter.ns_per_processed_pair") =
      (if (processed == 0) 0.0 else tr.seconds("filter") * 1e9 / processed, "ns")
    (processed, cands)
  }

  /** Algorithm 1's Hungarian fast path applies when every vertex pairs two single tokens. */
  private def singlesOnly(g: UsimGraph): Boolean =
    g.size > 0 && (0 until g.size).forall(i =>
      java.lang.Long.bitCount(g.maskS(i)) == 1 && java.lang.Long.bitCount(g.maskT(i)) == 1)

  /** `LocalJoin.join` as order → signatures → filter → per-candidate
    * graph build and MIS solve.
    */
  def local(tr: Tracer, m: Metrics, k: Knowledge, strings: IndexedSeq[String]): Vector[(Int, Int, Double)] = {
    val cfg = Join.Cfg
    val o = order(tr, m, k, strings)
    val sigs = signatures(tr, m, k, strings, o)
    val (_, cands) = filter(tr, m, sigs)
    val graphNs = new Array[Long](cands.length)
    val misNs = new Array[Long](cands.length)
    var vertices = 0L
    var maxVertices = 0
    var overTalon = 0
    var singles = 0
    val out = tr.span("verify") {
      cands.iterator.zipWithIndex.flatMap { case ((si, ti), idx) =>
        val t0 = System.nanoTime()
        val g = Usim.graph(k, strings(si), strings(ti), cfg.measures, cfg.q)
        val t1 = System.nanoTime()
        val sim = Usim.approxOnGraph(g, cfg.tParam)._1
        val t2 = System.nanoTime()
        graphNs(idx) = t1 - t0
        misNs(idx) = t2 - t1
        tr.charge("graph", t1 - t0)
        tr.charge("mis", t2 - t1)
        vertices += g.size
        maxVertices = math.max(maxVertices, g.size)
        if (g.size > SquareImp.DefaultPairTalonLimit) overTalon += 1
        if (singlesOnly(g)) singles += 1
        if (Join.accepted(sim)) Some((si, ti, sim)) else None
      }.toVector
    }
    val nc = math.max(cands.length, 1).toDouble
    m("graph.s") = (tr.seconds("graph"), "s")
    m("graph.us_p50") = (Stats.percentile(graphNs, 50) / 1e3, "us")
    m("graph.us_p99") = (Stats.percentile(graphNs, 99) / 1e3, "us")
    m("graph.vertices_mean") = (vertices / nc, "count")
    m("graph.vertices_max") = (maxVertices.toDouble, "count")
    m("graph.over_talon_limit") = (overTalon.toDouble, "count")
    m("mis.s") = (tr.seconds("mis"), "s")
    m("mis.us_p50") = (Stats.percentile(misNs, 50) / 1e3, "us")
    m("mis.us_p99") = (Stats.percentile(misNs, 99) / 1e3, "us")
    m("mis.singles_only_share") = (singles / nc, "ratio")
    m("verify.s") = (tr.seconds("verify"), "s")
    m("verify.self_s") = (tr.selfSeconds("verify"), "s")
    m("verify.results") = (out.length.toDouble, "count")
    m("verify.yield") = (out.length / nc, "ratio")
    out
  }

  /** The med-plan operation: order, then Algorithm 7 as
    * `JoinTimeExp.suggestTau` runs it (calibrate, then suggest), then
    * AU-DP signatures at τ = 2 and the filter stage. Algorithm 7's
    * estimates T̂₂ and V̂₂ are compared with the filter stage's counts.
    */
  def plan(tr: Tracer, m: Metrics, ctx: TextGen.GenContext, strings: IndexedSeq[String]): MedPlanOut = {
    val k = ctx.knowledge
    val o = order(tr, m, k, strings)
    val suggestCfg = LocalJoin.Config(Join.Theta, 1, SigAlgo.AUDp, Join.Cfg.measures)
    val cost = tr.span("calibrate")(CostModel.calibrate(k, strings.take(Join.CalibrationStrings), o, suggestCfg))
    val sug = tr.span("suggest") {
      TauSuggest.suggest(k, strings, o, suggestCfg, Join.Universe, Join.SampleProb, cost,
        nStar = Join.SuggestBurnIn, maxIter = Join.SuggestMaxIter)
    }
    val sigs = signatures(tr, m, k, strings, o)
    val (processed, cands) = filter(tr, m, sigs)
    def relErr(est: Double, actual: Double): Double =
      if (actual == 0) 0.0 else math.abs(est - actual) / actual
    m("calibrate.s") = (tr.seconds("calibrate"), "s")
    m("calibrate.cf_ns") = (cost.cf, "ns")
    m("calibrate.cv_ns") = (cost.cv, "ns")
    m("suggest.s") = (tr.seconds("suggest"), "s")
    m("suggest.iterations") = (sug.iterations.toDouble, "count")
    m("suggest.tau") = (sug.tau.toDouble, "count")
    m("suggest.t_hat_rel_err") = (relErr(sug.tHat(Join.Tau), processed.toDouble), "ratio")
    m("suggest.v_hat_rel_err") = (relErr(sug.vHat(Join.Tau), cands.length.toDouble), "ratio")
    MedPlanOut(processed, cands, sigs)
  }

  /** `SparkJoin.join` as its three calls, each forced and bracketed so
    * the listener attributes every stage to order, candidates or verify.
    */
  def spark(tr: Tracer, m: Metrics, spark: SparkSession, frame: DataFrame, k: Knowledge): Array[(Int, Int)] = {
    val sc = spark.sparkContext
    val listener = new StageListener
    sc.addSparkListener(listener)
    try {
      val rows = tr.group("spark") {
        val o = tr.span("spark.order") {
          StageListener.inPhase(sc, "order")(SparkJoin.computeOrder(spark, frame, k, Join.Cfg.measures, Join.Cfg.q))
        }
        val cands = tr.span("spark.candidates") {
          StageListener.inPhase(sc, "candidates") {
            val c = SparkJoin.candidates(spark, frame, frame, k, o, Join.Cfg, selfJoin = true).cache()
            c.count()
            c
          }
        }
        try tr.span("spark.verify") {
          StageListener.inPhase(sc, "verify")(SparkJoin.verify(spark, cands, frame, frame, k, Join.Cfg).collect())
        } finally cands.unpersist()
      }
      val tasks = listener.records(sc)
      m("spark.order_s") = (tr.seconds("spark.order"), "s")
      m("spark.candidates_s") = (tr.seconds("spark.candidates"), "s")
      m("spark.verify_s") = (tr.seconds("spark.verify"), "s")
      m("spark.tasks") = (tasks.length.toDouble, "count")
      m("spark.task_run_s") = (tasks.map(_.runMs).sum / 1e3, "s")
      m("spark.task_cpu_s") = (tasks.map(_.cpuNs).sum / 1e9, "s")
      m("spark.gc_s") = (tasks.map(_.gcMs).sum / 1e3, "s")
      m("spark.shuffle_write_mb") = (tasks.map(_.shuffleWriteBytes).sum / 1048576.0, "MB")
      m("spark.shuffle_read_mb") = (tasks.map(_.shuffleReadBytes).sum / 1048576.0, "MB")
      // The verify phase's busiest stage: its task count, and its slowest
      // task over its median task.
      val verifyStages = tasks.filter(_.phase == "verify").groupBy(_.stageId).values
      val busiest = if (verifyStages.isEmpty) Seq.empty else verifyStages.maxBy(_.map(_.runMs).sum)
      val durations = busiest.map(_.durationMs.toDouble)
      m("spark.verify_stage_tasks") = (busiest.length.toDouble, "count")
      m("spark.verify_task_skew") =
        (if (durations.isEmpty) 0.0 else durations.max / math.max(Stats.median(durations), 1.0), "ratio")
      Spark.pairs(rows)
    } finally sc.removeSparkListener(listener)
  }
}

final case class MedPlanOut(processed: Long, cands: Vector[(Int, Int)], sigs: IndexedSeq[Set[String]])
