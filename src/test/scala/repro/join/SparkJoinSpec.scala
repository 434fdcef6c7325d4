package repro.join

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core._
import repro.data.TextGen

class SparkJoinSpec extends SparkSpec {
  lazy val gctx: TextGen.GenContext = TextGen.context(TextGen.MedLite)
  lazy val k: Knowledge = gctx.knowledge
  lazy val ds: TextGen.JoinDataset = TextGen.joinDataset(gctx, n = 150, seed = 31L)

  private def toDF(strings: IndexedSeq[String]): DataFrame = {
    import spark.implicits._
    strings.zipWithIndex.map { case (s, i) => (i.toLong, s) }.toDF("id", "str")
  }

  private def collectPairs(df: DataFrame): Set[(Int, Int)] =
    df.select("sid", "tid").collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt)).toSet

  test("computeOrder matches the local frequency order ranking") {
    val df = toDF(ds.strings.take(50))
    val sparkOrder = SparkJoin.computeOrder(spark, df, k)
    val localOrder = LocalJoin.buildOrder(k, ds.strings.take(50), MeasureSet.TJS, 2)
    assert(sparkOrder == localOrder)
  }

  test("Spark self-join equals local self-join (U-Filter)") {
    val cfg = LocalJoin.Config(0.75, 1, SigAlgo.UFilter)
    val order = LocalJoin.buildOrder(k, ds.strings, cfg.measures, cfg.q)
    val got = collectPairs(
      SparkJoin.join(spark, toDF(ds.strings), toDF(ds.strings), k, cfg,
        selfJoin = true, precomputedOrder = Some(order)))
    val want = LocalJoin.join(k, ds.strings, ds.strings, cfg, selfJoin = true,
      precomputedOrder = Some(order))._1.map(r => (r._1, r._2)).toSet
    assert(got == want)
  }

  test("Spark self-join equals local self-join (AU-Filter DP, τ=2)") {
    val cfg = LocalJoin.Config(0.8, 2, SigAlgo.AUDp)
    val order = LocalJoin.buildOrder(k, ds.strings, cfg.measures, cfg.q)
    val got = collectPairs(
      SparkJoin.join(spark, toDF(ds.strings), toDF(ds.strings), k, cfg,
        selfJoin = true, precomputedOrder = Some(order)))
    val want = LocalJoin.join(k, ds.strings, ds.strings, cfg, selfJoin = true,
      precomputedOrder = Some(order))._1.map(r => (r._1, r._2)).toSet
    assert(got == want)
  }

  test("Spark two-collection join equals local join") {
    // Both frames number their strings from 0, so the same id names
    // different strings on the two sides: verification must keep the
    // sides' prepared strings apart.
    val left = ds.strings.take(70)
    val right = ds.strings.drop(70)
    val cfg = LocalJoin.Config(0.75, 1, SigAlgo.UFilter)
    val order = LocalJoin.buildOrder(k, ds.strings, cfg.measures, cfg.q)
    val got = collectPairs(SparkJoin.join(spark, toDF(left), toDF(right), k, cfg,
      precomputedOrder = Some(order)))
    val want = LocalJoin.join(k, left, right, cfg, precomputedOrder = Some(order))
      ._1.map(r => (r._1, r._2)).toSet
    assert(got == want)
  }

  test("Oracle: candidate generation SQL matches DuckDB over exploded signatures") {
    val cfg = LocalJoin.Config(0.8, 2, SigAlgo.AUHeuristic)
    val strings = ds.strings.take(80)
    val df = toDF(strings)
    val order = LocalJoin.buildOrder(k, strings, cfg.measures, cfg.q)
    val sig = SparkJoin.signatureKeys(spark, df, k, order, cfg)
    val cands = SparkJoin
      .candidates(spark, df, df, k, order, cfg, selfJoin = true)
      .select(col("sid"), col("tid"), col("overlap").cast("long").as("overlap"))
    Oracle.assertEquivalent(
      cands,
      s"""SELECT l.id AS sid, r.id AS tid, count(*) AS overlap
         |FROM sig l JOIN sig r ON l.key = r.key
         |WHERE CAST(l.id AS BIGINT) < CAST(r.id AS BIGINT)
         |GROUP BY l.id, r.id
         |HAVING count(*) >= ${cfg.tau}""".stripMargin,
      "sig" -> sig,
    )
  }

  test("verification stage drops below-θ candidates") {
    val cfg = LocalJoin.Config(0.9, 1, SigAlgo.UFilter)
    val order = LocalJoin.buildOrder(k, ds.strings, cfg.measures, cfg.q)
    val df = toDF(ds.strings)
    val cands = SparkJoin.candidates(spark, df, df, k, order, cfg, selfJoin = true)
    val verified = SparkJoin.verify(spark, cands, df, df, k, cfg)
    assert(verified.count() <= cands.count())
    val sims = verified.select("sim").collect().map(_.getDouble(0))
    assert(sims.forall(_ >= cfg.theta - 1e-9))
  }

  test("planted pairs that verify above θ are found by the Spark join") {
    val cfg = LocalJoin.Config(0.7, 1, SigAlgo.UFilter)
    val got = collectPairs(SparkJoin.join(spark, toDF(ds.strings), toDF(ds.strings), k, cfg,
      selfJoin = true))
    val expected = ds.truePairs.filter { case (i, j) =>
      Usim.approx(k, ds.strings(i), ds.strings(j)) >= cfg.theta }
    assert(expected.nonEmpty && expected.subsetOf(got))
  }

  test("empty input joins to empty output") {
    import spark.implicits._
    val empty = Seq.empty[(Long, String)].toDF("id", "str")
    val cfg = LocalJoin.Config(0.8, 1, SigAlgo.UFilter)
    assert(SparkJoin.join(spark, empty, empty, k, cfg, selfJoin = true,
      precomputedOrder = Some(Map.empty)).count() == 0)
  }

  test("Spark self-join over null and empty strings equals local and pairs neither") {
    val strings = ds.strings.take(60) ++ Seq(null, "")
    val cfg = LocalJoin.Config(0.75, 2, SigAlgo.AUDp)
    val got = collectPairs(SparkJoin.join(spark, toDF(strings), toDF(strings), k, cfg,
      selfJoin = true))
    val want = LocalJoin.join(k, strings, strings, cfg, selfJoin = true)._1
      .map(r => (r._1, r._2)).toSet
    assert(got == want)
    assert(want.nonEmpty)
    assert(!got.exists { case (i, j) => Set(i, j).exists(_ >= 60) })
  }

  test("Spark join with a string over 64 tokens that is no candidate's partner equals local") {
    val strings = ds.strings.take(40) :+ Vector.fill(65)("ßßß").mkString(" ")
    val cfg = LocalJoin.Config(0.75, 2, SigAlgo.AUDp)
    val got = collectPairs(SparkJoin.join(spark, toDF(strings), toDF(strings), k, cfg,
      selfJoin = true))
    val want = LocalJoin.join(k, strings, strings, cfg, selfJoin = true)._1
      .map(r => (r._1, r._2)).toSet
    assert(got == want)
    assert(want.nonEmpty)
  }

  test("signature UDF output matches local signatures") {
    val cfg = LocalJoin.Config(0.8, 3, SigAlgo.AUDp)
    val strings = ds.strings.take(30)
    val order = LocalJoin.buildOrder(k, strings, cfg.measures, cfg.q)
    val sparkSigs = SparkJoin.signatureKeys(spark, toDF(strings), k, order, cfg)
      .collect().groupBy(_.getLong(0)).view
      .mapValues(_.map(_.getString(1)).toSet).toMap
    val localSigs = LocalJoin.signatures(k, strings, order, cfg)
    for (i <- strings.indices)
      assert(sparkSigs.getOrElse(i.toLong, Set.empty) == localSigs(i), s"string $i")
  }
}
