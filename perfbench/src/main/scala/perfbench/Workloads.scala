package perfbench

import java.nio.file.{Path, Paths}
import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.data.TextGen
import repro.exp.JoinTimeExp
import repro.join._

/** Where the benchmark reads and writes, relative to the checkout root. */
object Dirs {
  /** Committed references. */
  val refs: Path = Paths.get("perfbench/refs")
  /** Everything a run writes: computed references, Spark scratch, spans. */
  val cache: Path = Paths.get(".bench_build/refs")
  val spark: Path = Paths.get(".bench_build/spark")
  val trace: Path = Paths.get(".bench_build/trace")
}

final case class Settings(
    seed: Long,
    seconds: Double,
    threads: Int,
    shufflePartitions: Int,
)

/** Named metric values with units, in insertion order. */
final class Metrics {
  private val values = mutable.LinkedHashMap[String, (Double, String)]()
  def update(name: String, valueAndUnit: (Double, String)): Unit = values(name) = valueAndUnit
  def get(name: String): Option[Double] = values.get(name).map(_._1)
  def all: Seq[(String, Double, String)] = values.iterator.map { case (n, (v, u)) => (n, v, u) }.toSeq
}

/** Result of checking one operation's output against its reference. */
final case class Outcome(fingerprint: String, spurious: Long, recall: Double, problems: Seq[String]) {
  def ok: Boolean = problems.isEmpty
}

object Checks {
  /** Pair codes sorted and deduplicated, with any malformed output named. */
  def codes(pairs: Iterator[(Int, Int)]): (Array[Long], Seq[String]) = {
    val raw = pairs.map { case (i, j) => Pairs.code(i, j) }.toArray
    java.util.Arrays.sort(raw)
    val distinct = Pairs.dedupeSorted(raw)
    val problems = Seq(
      Option.when(distinct.length < raw.length)(s"${raw.length - distinct.length} duplicate pairs"),
      Option.when(distinct.exists(c => Pairs.left(c) >= Pairs.right(c)))("pairs not ordered i < j"),
    ).flatten
    (distinct, problems)
  }

  /** How many of `xs` are not in the sorted array `sorted`. */
  def absent(xs: Array[Long], sorted: Array[Long]): Int =
    xs.count(x => java.util.Arrays.binarySearch(sorted, x) < 0)

  /** Share of `reference` found in the sorted `found`; 1 when the reference is empty. */
  def recall(found: Array[Long], reference: Array[Long]): Double =
    if (reference.isEmpty) 1.0
    else (reference.length - absent(reference, found)).toDouble / reference.length

  /** A join's result pairs against the brute-force reference: every
    * returned pair must be in it; the share of it returned is the recall.
    */
  def results(pairs: Iterator[(Int, Int)], reference: Array[Long]): Outcome = {
    val (found, problems) = codes(pairs)
    val spurious = absent(found, reference).toLong
    Outcome(Pairs.fingerprint(found), spurious, recall(found, reference),
      problems ++ Option.when(spurious > 0)(s"$spurious spurious pairs"))
  }
}

/** The join configuration of every workload: AU-Filter (DP), θ = 0.85, τ = 2. */
object Join {
  val Theta = 0.85
  val Tau = 2
  val Cfg: LocalJoin.Config = LocalJoin.Config(Theta, Tau, SigAlgo.AUDp)
  /** Algorithm 7 as `JoinTimeExp.suggestTau` runs it. */
  val Universe: Seq[Int] = Seq(1, 2, 4, 6, 8)
  val SampleProb = 0.05
  val CalibrationStrings = 300
  val SuggestMaxIter = 120
  val SuggestBurnIn = 10

  def accepted(sim: Double): Boolean = sim >= Theta - 1e-12
}

/** One benchmark workload: inputs made from the seed, a timed
  * operation, the check of its output, and a traced rebuild of the
  * same operation from the program's public parts.
  */
trait Workload {
  type Out
  def name: String
  /** Generates the knowledge and the strings from the seed. */
  def generate(): Unit
  /** Builds the inputs; timed as set-up, and may run several times. */
  def setUp(): Unit = generate()
  /** Loads or computes the reference answer of the generated strings (untimed). */
  def prepare(): Unit
  def run(): Out
  def check(out: Out): Outcome
  /** The operation rebuilt with spans; its output must fingerprint equal to `run()`'s. */
  def traced(tr: Tracer, m: Metrics): Out
  /** The span of `traced` that times what `run()` does. */
  def tracedSpan: String = name
  def close(): Unit = ()
}

object Workload {
  def apply(name: String, s: Settings): Workload = name match {
    case "med-plan"   => new MedPlan(s)
    case "wiki-spark" => new WikiSpark(s)
    case other        => throw new IllegalArgumentException(s"unknown workload $other")
  }
  val names: Seq[String] = Seq("med-plan", "wiki-spark")
}

/** A workload over one generated collection. The collection is fixed:
  * it comes from `DataSeed`. The run's seed shuffles it, which changes
  * each string's id and the order the program sees the strings in, but
  * not the join's work, so runs with different seeds time the same join.
  */
abstract class Collection(s: Settings, kind: TextGen.Kind, n: Int, label: String) extends Workload {
  protected var ctx: TextGen.GenContext = _
  protected var strings: Vector[String] = _
  protected var reference: Array[Long] = Array.empty
  private var generated: Vector[String] = _
  /** position(i) is the id of the i-th generated string. */
  private var position: Array[Int] = _

  def generate(): Unit = {
    ctx = TextGen.context(kind)
    generated = TextGen.joinDataset(ctx, n, Collection.DataSeed).strings
    val order = new scala.util.Random(s.seed).shuffle(generated.indices.toVector)
    strings = order.map(generated)
    position = new Array[Int](n)
    order.indices.foreach(p => position(order(p)) = p)
  }

  /** The reference of the generated collection, renumbered to the run's ids. */
  def prepare(): Unit = {
    val ref = Reference.load(label, ctx.knowledge, generated, Join.Cfg, s.threads)
    reference = Checks.codes(ref.iterator.map { c =>
      val (a, b) = (position(Pairs.left(c)), position(Pairs.right(c)))
      (math.min(a, b), math.max(a, b))
    })._1
  }
}

object Collection {
  /** The generator seed of every workload's collection. */
  val DataSeed = 61L
}

/** MED-lite, n = 1600: global order, Algorithm 7, AU-DP signatures at
  * τ = 2 and the filter stage, no verification. Filter-bound.
  */
final class MedPlan(s: Settings) extends Collection(s, TextGen.MedLite, 1600, "med-n1600") {
  type Out = MedPlanOut
  val name = "med-plan"

  def run(): Out = {
    val k = ctx.knowledge
    val order = LocalJoin.buildOrder(k, strings, Join.Cfg.measures, Join.Cfg.q)
    JoinTimeExp.suggestTau(ctx, strings, order, Join.Theta, SigAlgo.AUDp, Join.Universe, Join.SampleProb,
      Join.SuggestMaxIter)
    val sigs = LocalJoin.signatures(k, strings, order, Join.Cfg)
    val (processed, cands) = LocalJoin.filterStage(sigs, sigs, Join.Tau, selfJoin = true)
    MedPlanOut(processed, cands, sigs)
  }

  /** Candidates must be exactly the pairs whose signatures share ≥ τ
    * keys, and T_τ the sum of C(|list|, 2) over the inverted lists,
    * both recounted here from the signatures the run produced. Recall
    * is the share of reference pairs that are candidates.
    */
  def check(out: Out): Outcome = {
    val (found, problems) = Checks.codes(out.cands.iterator)
    val (expected, expectedProcessed) = overlap(out.sigs)
    val spurious = Checks.absent(found, expected).toLong
    val missing = Checks.absent(expected, found)
    Outcome(Pairs.fingerprint(found), spurious, Checks.recall(found, reference),
      problems ++
        Option.when(spurious > 0)(s"$spurious spurious candidates") ++
        Option.when(missing > 0)(s"$missing candidates missing") ++
        Option.when(out.processed != expectedProcessed)(
          s"processed pairs ${out.processed}, expected $expectedProcessed"))
  }

  def traced(tr: Tracer, m: Metrics): Out = Pipelines.plan(tr, m, ctx, strings)

  /** The last signatures recounted and their brute-force overlap; equal
    * signatures have the same expected output, so a rep that repeats
    * them is checked without a second brute force.
    */
  private var recounted: Option[(IndexedSeq[Set[String]], (Array[Long], Long))] = None

  private def overlap(sigs: IndexedSeq[Set[String]]): (Array[Long], Long) = recounted match {
    case Some((seen, expected)) if seen == sigs => expected
    case _ =>
      val expected = Overlap.bruteForce(sigs, Join.Tau)
      recounted = Some((sigs, expected))
      expected
  }
}

/** WIKI-lite, n = 400, `SparkJoin.join` self-join on local[k], result
  * collected with `collect()`.
  */
final class WikiSpark(s: Settings) extends Collection(s, TextGen.WikiLite, 400, "wiki-n400") {
  type Out = Array[(Int, Int)]
  val name = "wiki-spark"
  private var spark: SparkSession = _
  private var frame: DataFrame = _

  override def setUp(): Unit = {
    close()
    generate()
    spark = Spark.session(s)
    frame = Spark.frame(spark, strings)
  }
  def run(): Out = Spark.pairs(
    SparkJoin.join(spark, frame, frame, ctx.knowledge, Join.Cfg, selfJoin = true).collect())
  def check(out: Out): Outcome = Checks.results(out.iterator, reference)

  /** The Spark join bracketed by phase, then the local pipeline on the
    * same strings, which must agree with it; the local layers show the
    * WIKI conflict graphs the Spark UDFs verify.
    */
  def traced(tr: Tracer, m: Metrics): Out = {
    val out = Pipelines.spark(tr, m, spark, frame, ctx.knowledge)
    val local = tr.group("local")(Pipelines.local(tr, m, ctx.knowledge, strings))
    val sparkFp = Checks.codes(out.iterator)._1
    val localFp = Checks.codes(local.iterator.map(r => (r._1, r._2)))._1
    if (!(sparkFp sameElements localFp))
      throw new IllegalStateException(
        s"local pipeline ${Pairs.fingerprint(localFp)} differs from Spark ${Pairs.fingerprint(sparkFp)}")
    out
  }

  override def tracedSpan: String = "spark"
  override def close(): Unit = if (spark != null) { spark.stop(); spark = null }
}

/** The benchmark's own Spark settings. */
object Spark {
  def session(s: Settings): SparkSession = {
    val dir = Dirs.spark.toAbsolutePath.toString
    val spark = SparkSession.builder()
      .master(s"local[${s.threads}]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", s.shufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      // At this input size adaptive execution would coalesce the shuffle
      // into one partition and verify on one thread; keep the pinned
      // partition count so the stages run in parallel as at scale.
      .config("spark.sql.adaptive.coalescePartitions.enabled", false)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", dir)
      .config("spark.sql.warehouse.dir", s"$dir/warehouse")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    spark
  }

  def frame(spark: SparkSession, strings: Seq[String]): DataFrame =
    spark.createDataFrame(strings.zipWithIndex.map { case (str, i) => (i.toLong, str) }).toDF("id", "str")

  def pairs(rows: Array[org.apache.spark.sql.Row]): Array[(Int, Int)] =
    rows.map(r => (r.getLong(0).toInt, r.getLong(1).toInt))
}

/** Brute-force signature overlap: the filter stage's expected output. */
object Overlap {
  def bruteForce(sigs: IndexedSeq[Set[String]], tau: Int): (Array[Long], Long) = {
    val ids = mutable.HashMap[String, Int]()
    val arrs = sigs.map(sig => sig.iterator.map(key => ids.getOrElseUpdate(key, ids.size)).toArray.sorted)
    val df = new Array[Long](ids.size)
    arrs.foreach(_.foreach(id => df(id) += 1))
    val processed = df.iterator.map(d => d * (d - 1) / 2).sum
    val out = Array.newBuilder[Long]
    var i = 0
    while (i < arrs.length) {
      val a = arrs(i)
      var j = i + 1
      while (j < arrs.length) {
        val b = arrs(j)
        var x = 0; var y = 0; var shared = 0
        while (x < a.length && y < b.length) {
          if (a(x) < b(y)) x += 1
          else if (a(x) > b(y)) y += 1
          else { shared += 1; x += 1; y += 1 }
        }
        if (shared >= tau) out += Pairs.code(i, j)
        j += 1
      }
      i += 1
    }
    (out.result(), processed)
  }
}
