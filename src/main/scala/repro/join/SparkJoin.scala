package repro.join

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._

import scala.collection.mutable

/** Distributed unified set join (Algorithms 3/6 as a Spark dataflow).
  *
  * Pebble-signature generation runs as a DataFrame UDF and USIM
  * verification as a `mapPartitions` over prepared strings, both over
  * broadcast knowledge; candidate generation is a shuffle
  * join on exploded signature keys followed by a per-pair overlap
  * count (signature keys are distinct per string, so `count(*)` is the
  * distinct-pebble overlap the paper's Algorithm 6 counts).
  *
  * Input frames carry columns (`id` LONG, `str` STRING).
  */
object SparkJoin {

  /** Global frequency order computed with a Spark aggregation: the
    * number of strings containing each pebble key, rarest first.
    */
  def computeOrder(
      spark: SparkSession,
      strings: DataFrame,
      k: Knowledge,
      measures: MeasureSet = MeasureSet.TJS,
      q: Int = Measures.DefaultQ,
  ): Map[String, Int] = {
    val bk = spark.sparkContext.broadcast(k)
    val keysUdf = udf { (s: String) =>
      val toks = Tokenizer.tokens(s)
      Pebbles
        .generate(bk.value, Segments.wellDefined(bk.value, toks), measures, q)
        .iterator.map(_.key).toSet.toSeq
    }
    val counted = strings
      .select(explode(keysUdf(col("str"))).as("key"))
      .groupBy("key")
      .agg(count(lit(1)).as("freq"))
      .collect()
      .map(r => (r.getString(0), r.getLong(1)))
    counted.sortBy { case (key, f) => (f, key) }.iterator.zipWithIndex
      .map { case ((key, _), r) => key -> r }
      .toMap
  }

  /** (`id`, `key`) exploded signatures of a collection. */
  def signatureKeys(
      spark: SparkSession,
      strings: DataFrame,
      k: Knowledge,
      order: Map[String, Int],
      cfg: LocalJoin.Config,
  ): DataFrame = {
    val bk = spark.sparkContext.broadcast(k)
    val bo = spark.sparkContext.broadcast(order)
    val sigUdf = udf { (s: String) =>
      new SignatureContext(Tokenizer.tokens(s), bk.value, cfg.measures, cfg.q, bo.value)
        .select(cfg.algo, cfg.theta, cfg.tau)
        .toSeq
    }
    strings.select(col("id"), explode(sigUdf(col("str"))).as("key"))
  }

  /** Candidate pairs (`sid`, `tid`, `overlap`) sharing ≥ τ signature
    * pebbles — Lines 1-8 of Algorithm 6 (τ = 1 gives Algorithm 3).
    */
  def candidates(
      spark: SparkSession,
      left: DataFrame,
      right: DataFrame,
      k: Knowledge,
      order: Map[String, Int],
      cfg: LocalJoin.Config,
      selfJoin: Boolean = false,
  ): DataFrame = {
    val sigL = signatureKeys(spark, left, k, order, cfg)
      .withColumnRenamed("id", "sid")
    val sigR =
      (if (selfJoin) sigL else signatureKeys(spark, right, k, order, cfg))
        .withColumnRenamed(if (selfJoin) "sid" else "id", "tid")
    val joined = sigL.join(sigR, "key")
    val paired = if (selfJoin) joined.where(col("sid") < col("tid")) else joined
    paired
      .groupBy("sid", "tid")
      .agg(count(lit(1)).as("overlap"))
      .where(col("overlap") >= cfg.tau)
  }

  /** Full join: (`sid`, `tid`, `sim`) with USIM(S,T) ≥ θ (Algorithm 6). */
  def join(
      spark: SparkSession,
      left: DataFrame,
      right: DataFrame,
      k: Knowledge,
      cfg: LocalJoin.Config,
      selfJoin: Boolean = false,
      precomputedOrder: Option[Map[String, Int]] = None,
  ): DataFrame = {
    val order = precomputedOrder.getOrElse {
      val corpus = if (selfJoin) left else left.unionByName(right)
      computeOrder(spark, corpus, k, cfg.measures, cfg.q)
    }
    val cands = candidates(spark, left, right, k, order, cfg, selfJoin)
    verify(spark, cands, left, right, k, cfg)
  }

  /** Verification stage: attach strings and keep pairs with USIM ≥ θ.
    * Each partition verifies its (`sid`, `tid`, `s_str`, `t_str`) rows
    * in one pass, preparing a string on its first row and keeping it in
    * one memo per side, since the two sides' ids overlap in an R–S join.
    */
  def verify(
      spark: SparkSession,
      cands: DataFrame,
      left: DataFrame,
      right: DataFrame,
      k: Knowledge,
      cfg: LocalJoin.Config,
  ): DataFrame = {
    import spark.implicits._
    val bk = spark.sparkContext.broadcast(k)
    cands
      .join(left.select(col("id").as("sid"), col("str").as("s_str")), "sid")
      .join(right.select(col("id").as("tid"), col("str").as("t_str")), "tid")
      .select("sid", "tid", "s_str", "t_str")
      .as[(Long, Long, String, String)]
      .mapPartitions { rows =>
        val k = bk.value
        val prepS = mutable.HashMap.empty[Long, Prepared]
        val prepT = mutable.HashMap.empty[Long, Prepared]
        rows.flatMap { case (sid, tid, s, t) =>
          val sim = Usim.approx(k, prepS.getOrElseUpdate(sid, Prepared(k, s, cfg.q)),
            prepT.getOrElseUpdate(tid, Prepared(k, t, cfg.q)), cfg.measures, cfg.tParam)
          if (sim >= cfg.theta - Usim.AcceptSlack) Iterator.single((sid, tid, sim)) else Iterator.empty
        }
      }
      .toDF("sid", "tid", "sim")
  }
}
