package repro.tune

import repro.core._
import repro.join._

/** The join cost model of Eq (15): C_τ = c_f·T_τ + c_v·V_τ, with the
  * per-pair filtering cost c_f and per-pair verification cost c_v in
  * nanoseconds, assumed insensitive to τ.
  */
final case class CostModel(cf: Double, cv: Double) {
  def cost(t: Double, v: Double): Double = cf * t + cv * v
}

object CostModel {

  /** Ballpark constants for unit tests (verification ~200× filtering). */
  val Default: CostModel = CostModel(cf = 40.0, cv = 8000.0)

  /** Measure c_f and c_v on a small sample of the actual workload:
    * c_f = time per processed pair in the filtering stage, c_v = time
    * per USIM verification of two prepared strings, as the join
    * verifies (each string is prepared before the timing). Mirrors the
    * paper's assumption that both are dataset-level constants.
    */
  def calibrate(
      k: Knowledge,
      sample: IndexedSeq[String],
      order: Map[String, Int],
      cfg: LocalJoin.Config,
  ): CostModel = {
    val sigs = LocalJoin.signatures(k, sample, order, cfg)
    val t0 = System.nanoTime()
    val (processed, cands) = LocalJoin.filterStage(sigs, sigs, cfg.tau, selfJoin = true)
    val t1 = System.nanoTime()
    val toVerify = cands.take(200)
    val prepared = Prepared.lazily(k, sample, cfg.q)
    toVerify.foreach { case (i, j) => prepared(i); prepared(j) }
    val t2 = System.nanoTime()
    toVerify.foreach { case (i, j) =>
      Usim.approx(k, prepared(i), prepared(j), cfg.measures, cfg.tParam)
    }
    val t3 = System.nanoTime()
    val cf = if (processed > 0) (t1 - t0).toDouble / processed else 50.0
    val cv = if (toVerify.nonEmpty) (t3 - t2).toDouble / toVerify.size else 10000.0
    CostModel(math.max(cf, 1.0), math.max(cv, 1.0))
  }
}
