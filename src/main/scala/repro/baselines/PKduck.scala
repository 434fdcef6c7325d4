package repro.baselines

import repro.core.{Knowledge, Tokenizer, Usim}
import repro.join.LocalJoin

/** Reimplementation of PKduck [50] (Tao et al., PVLDB 2017):
  * similarity join under synonym/abbreviation rules, where the
  * similarity of (S, T) is the best token-set Jaccard achievable after
  * rewriting one side with applicable rules.
  *
  * The original bounds the rewrite search with a dial-prefix dynamic
  * program over edit-distance; we bound it by the number of applied
  * non-overlapping rules (≤ 2) and a derivation cap, which preserves
  * the measure's recall profile at our scale.
  */
object PKduck {

  val MaxApplications = 2
  val MaxDerivations = 64

  /** All strings derivable from `toks` by ≤ `MaxApplications`
    * non-overlapping rule applications (both rule directions).
    */
  def derivations(k: Knowledge, toks: Vector[String]): Set[Vector[String]] = {
    var frontier = Set(toks)
    var all = Set(toks)
    var depth = 0
    while (depth < MaxApplications && frontier.nonEmpty && all.size < MaxDerivations) {
      val next = Set.newBuilder[Vector[String]]
      for (cur <- frontier) {
        val maxLen = k.maxRuleTokens
        for {
          i <- cur.indices
          len <- 1 to math.min(maxLen, cur.length - i)
          span = cur.slice(i, i + len)
          rid <- k.rulesTouching(span)
        } {
          val r = k.rule(rid)
          val repl = if (r.lhs == span) r.rhs else r.lhs
          val derived = cur.take(i) ++ repl ++ cur.drop(i + len)
          if (!all.contains(derived)) next += derived
        }
      }
      frontier = next.result() -- all
      all = all ++ frontier
      depth += 1
    }
    all
  }

  private def tokenJaccard(a: Vector[String], b: Vector[String]): Double = {
    val sa = a.toSet
    val sb = b.toSet
    if (sa.isEmpty && sb.isEmpty) 0.0
    else sa.intersect(sb).size.toDouble / sa.union(sb).size
  }

  /** PKduck similarity: best token Jaccard over one-sided rewrites. */
  def sim(k: Knowledge, s: String, t: String): Double = {
    val st = Tokenizer.tokens(s)
    val tt = Tokenizer.tokens(t)
    val left = derivations(k, st).iterator.map(tokenJaccard(_, tt)).max
    val right = derivations(k, tt).iterator.map(tokenJaccard(st, _)).max
    math.max(left, right)
  }

  /** Index keys: every token of every derivation (any shared token is a
    * necessary condition for positive token Jaccard after rewriting).
    */
  def signature(k: Knowledge, s: String): Set[String] =
    derivations(k, Tokenizer.tokens(s)).flatten

  /** Self-join: pairs with PKduck similarity ≥ θ. */
  def join(k: Knowledge, strings: IndexedSeq[String], theta: Double): Vector[(Int, Int, Double)] = {
    val sigs = strings.map(signature(k, _))
    LocalJoin.filterStage(sigs, sigs, 1, selfJoin = true)._2.flatMap { case (i, j) =>
      val x = sim(k, strings(i), strings(j))
      if (x >= theta - Usim.AcceptSlack) Some((i, j, x)) else None
    }
  }
}

/** The paper's "Combination" baseline: union of the three single-measure
  * baselines' result pairs (§5.5).
  */
object Combination {
  def join(
      k: Knowledge,
      strings: IndexedSeq[String],
      theta: Double,
  ): Vector[(Int, Int)] = {
    val a = KJoin.join(k, strings, theta).map(r => (r._1, r._2))
    val b = AdaptJoin.join(strings, theta).map(r => (r._1, r._2))
    val c = PKduck.join(k, strings, theta).map(r => (r._1, r._2))
    (a ++ b ++ c).distinct.sorted
  }

  /** Pairwise predicate for effectiveness tables: any baseline ≥ θ. */
  def sim(k: Knowledge, s: String, t: String): Double =
    math.max(KJoin.sim(k, s, t), math.max(AdaptJoin.sim(s, t), PKduck.sim(k, s, t)))
}
