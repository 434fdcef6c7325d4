package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.TextGen
import repro.exp._

/** spark-submit entrypoints, one per paper table. Sizes are modest by
  * default (container-scale); override with the first CLI argument
  * where noted. Output goes to stdout in the paper's table layout.
  */
object JobUtil {

  /** The one SparkSession builder of the jobs, the tests and the bench
    * suites: master and shuffle partitions from SPARK_MASTER and
    * SPARK_SHUFFLE_PARTITIONS, broadcast joins off (so joins take the
    * shuffle path), no UI, WARN logging.
    */
  def session(name: String): SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def argInt(args: Array[String], i: Int, default: Int): Int =
    if (args.length > i) args(i).toInt else default
}

/** Table 6: knowledge-source characteristics. */
object Table06Job {
  def main(args: Array[String]): Unit = {
    val rows = Seq(
      TableStats.knowledgeRow("MeSH-lite tree", Contexts.med),
      TableStats.knowledgeRow("Wiki-lite categories", Contexts.wiki))
    println("== Table 6 (synthetic substitutes; paper: MeSH 57,840 nodes h 1/5.1/12, Wiki 1,212,943 nodes h 1/6.2/26) ==")
    println(TableStats.formatTable6(rows))
  }
}

/** Table 7: string-dataset characteristics. */
object Table07Job {
  def main(args: Array[String]): Unit = {
    val n = JobUtil.argInt(args, 0, 5000)
    val rows = Seq(
      TableStats.datasetRow("MED-lite", Contexts.med,
        TextGen.joinDataset(Contexts.med, n, seed = 7L).strings),
      TableStats.datasetRow("WIKI-lite", Contexts.wiki,
        TextGen.joinDataset(Contexts.wiki, n, seed = 7L).strings))
    println("== Table 7 (synthetic substitutes; paper: MED 293,294 strings, WIKI 3,512,954) ==")
    println(TableStats.formatTable7(rows))
  }
}

/** Table 8: effectiveness of measure combinations. */
object Table08Job {
  def main(args: Array[String]): Unit = {
    val nPairs = JobUtil.argInt(args, 0, 300)
    val rows = EffectivenessExp.table8(TextGen.MedLite, nPos = nPairs, nNeg = nPairs) ++
      EffectivenessExp.table8(TextGen.WikiLite, nPos = nPairs, nNeg = nPairs)
    println("== Table 8: P/R/F per measure combination ==")
    println(EffectivenessExp.format(rows))
  }
}

/** Table 9: approximation accuracy vs maximal rule size k. */
object Table09Job {
  def main(args: Array[String]): Unit = {
    val pairs = JobUtil.argInt(args, 0, 150)
    println("== Table 9: approx/exact ratio percentiles ==")
    println(ApproxAccuracyExp.format(ApproxAccuracyExp.run(pairsPerK = pairs)))
  }
}

/** Table 10: Spark join breakdown across dataset sizes. */
object Table10Job {
  def main(args: Array[String]): Unit = {
    val base = JobUtil.argInt(args, 0, 2000)
    val spark = JobUtil.session("table10")
    try {
      val sizes = Seq(base, base * 2, base * 3)
      val rows = ScalabilityExp.run(spark, TextGen.MedLite, sizes, theta = 0.9) ++
        ScalabilityExp.run(spark, TextGen.WikiLite, sizes, theta = 0.95)
      println("== Table 10: suggestion / filtering / verification vs size ==")
      println(ScalabilityExp.format(rows))
    } finally spark.stop()
  }
}

/** Table 11: suggested vs random vs worst τ. */
object Table11Job {
  def main(args: Array[String]): Unit = {
    val n = JobUtil.argInt(args, 0, 1500)
    val rows = TauEffectExp.run(TextGen.MedLite, n) ++ TauEffectExp.run(TextGen.WikiLite, n)
    println("== Table 11: AU-Filter (heuristics) run time by τ selection policy ==")
    println(TauEffectExp.format(rows))
  }
}

/** Table 12: suggestion accuracy and time fraction. */
object Table12Job {
  def main(args: Array[String]): Unit = {
    val n = JobUtil.argInt(args, 0, 1200)
    val repeats = JobUtil.argInt(args, 1, 30)
    val rows = TauAccuracyExp.run(TextGen.MedLite, n, repeats = repeats) ++
      TauAccuracyExp.run(TextGen.WikiLite, n, repeats = repeats)
    println("== Table 12: suggestion accuracy / time fraction ==")
    println(TauAccuracyExp.format(rows))
  }
}

/** Table 13: effectiveness vs published baselines. */
object Table13Job {
  def main(args: Array[String]): Unit = {
    val nPairs = JobUtil.argInt(args, 0, 300)
    val rows = EffectivenessExp.table13(TextGen.MedLite, nPos = nPairs, nNeg = nPairs) ++
      EffectivenessExp.table13(TextGen.WikiLite, nPos = nPairs, nNeg = nPairs)
    println("== Table 13: ours vs K-Join / AdaptJoin / PKduck / Combination ==")
    println(EffectivenessExp.format(rows))
  }
}

/** Table 14: join time vs baselines by measure group. */
object Table14Job {
  def main(args: Array[String]): Unit = {
    val n = JobUtil.argInt(args, 0, 1500)
    val med = BaselineTimeExp.run(TextGen.MedLite, n)
    val wiki = BaselineTimeExp.run(TextGen.WikiLite, n)
    println("== Table 14: join time (ms) vs baselines ==")
    println("MED-lite:")
    println(BaselineTimeExp.format(med))
    println("WIKI-lite:")
    println(BaselineTimeExp.format(wiki))
  }
}
