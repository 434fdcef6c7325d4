package repro.baselines

import repro.core._
import repro.join.LocalJoin

/** Reimplementation of K-Join [46] (Shang et al., TKDE 2016):
  * knowledge-aware similarity join on taxonomy signatures.
  *
  * Filtering: an entity a with similarity ≥ θ to some entity b must
  * share with it an ancestor of depth ≥ ⌈θ·|a|⌉ (since sim =
  * |LCA|/max(|a|,|b|) ≥ θ implies |LCA| ≥ θ·|a|), so each string is
  * indexed under every ancestor in depth range [⌈θ·|a|⌉, |a|] of each
  * of its entities; candidates share ≥ 1 key. Verification: the
  * taxonomy-restricted unified similarity (K-Join's weighted matching
  * of per-entity similarities).
  */
object KJoin {

  /** Taxonomy-only similarity used for verification and effectiveness. */
  def sim(k: Knowledge, s: String, t: String): Double =
    Usim.approx(k, s, t, MeasureSet.T)

  /** Signature keys: qualifying ancestors of every entity in the string. */
  def signature(k: Knowledge, s: String, theta: Double): Set[String] = {
    val toks = Tokenizer.tokens(s)
    val segs = Segments.wellDefined(k, toks)
    val out = Set.newBuilder[String]
    for (seg <- segs; n <- k.taxonomy.node(seg.tokens)) {
      val minDepth = math.max(1, math.ceil(theta * k.taxonomy.depth(n)).toInt)
      for (a <- k.taxonomy.ancestors(n) if k.taxonomy.depth(a) >= minDepth)
        out += s"kj:$a"
    }
    out.result()
  }

  /** Self-join: pairs (i, j, sim) with i < j and taxonomy sim ≥ θ. */
  def join(k: Knowledge, strings: IndexedSeq[String], theta: Double): Vector[(Int, Int, Double)] = {
    val sigs = strings.map(signature(k, _, theta))
    LocalJoin.filterStage(sigs, sigs, 1, selfJoin = true)._2.flatMap { case (i, j) =>
      val x = sim(k, strings(i), strings(j))
      if (x >= theta - Usim.AcceptSlack) Some((i, j, x)) else None
    }
  }
}
