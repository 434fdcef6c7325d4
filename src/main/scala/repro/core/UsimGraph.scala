package repro.core

/** The conflict graph of §2.3 for a string pair (S, T).
  *
  * Each vertex is a pair of well-defined segments (one span of S, one of
  * T) with weight msim over the enabled measures; two vertices conflict
  * iff their S-spans or T-spans share a token. Token coverage is stored
  * as 64-bit masks, so a conflict test is two mask intersections and
  * GetSim needs only popcounts (strings are capped at 64 tokens, far
  * above the datasets' maxima).
  */
final class UsimGraph(
    val sLen: Int,
    val tLen: Int,
    val weights: Array[Double],
    val maskS: Array[Long],
    val maskT: Array[Long],
    val sSegs: Array[Segment],
    val tSegs: Array[Segment],
) {
  def size: Int = weights.length

  def conflict(i: Int, j: Int): Boolean =
    (maskS(i) & maskS(j)) != 0L || (maskT(i) & maskT(j)) != 0L

  /** Vertices of `a` conflicting with (or equal to) vertex `v` — the
    * paper's N(v, A).
    */
  def neighboursIn(v: Int, a: Iterable[Int]): List[Int] =
    a.iterator.filter(u => u == v || conflict(u, v)).toList

  def isIndependent(sel: Seq[Int]): Boolean = {
    var ms = 0L; var mt = 0L
    sel.forall { i =>
      val ok = (ms & maskS(i)) == 0L && (mt & maskT(i)) == 0L
      ms |= maskS(i); mt |= maskT(i)
      ok
    }
  }

  /** GetSim (Algorithm 1): the unified similarity induced by an
    * independent set — selected weights over the larger induced
    * partition size, uncovered tokens standing as singleton segments.
    */
  def getSim(sel: Iterable[Int]): Double = {
    var w = 0.0; var ms = 0L; var mt = 0L; var n = 0
    for (i <- sel) { w += weights(i); ms |= maskS(i); mt |= maskT(i); n += 1 }
    simOf(w, n, ms, mt)
  }

  /** GetSim's ratio for `cnt` independent vertices of total weight `w`
    * covering `ms` and `mt`: w / (cnt + max(|S| − |ms|, |T| − |mt|)), 0
    * when the denominator is 0. The one denominator of Algorithm 1 and of
    * the exact search.
    */
  def simOf(w: Double, cnt: Int, ms: Long, mt: Long): Double = {
    val den = cnt + math.max(sLen - java.lang.Long.bitCount(ms), tLen - java.lang.Long.bitCount(mt))
    if (den == 0) 0.0 else w / den
  }
}

object UsimGraph {

  /** Graph construction of §2.3 on two strings of tokens, each prepared first. */
  def build(
      k: Knowledge,
      sToks: Vector[String],
      tToks: Vector[String],
      measures: MeasureSet = MeasureSet.TJS,
      q: Int = Measures.DefaultQ,
  ): UsimGraph = build(k, Prepared(k, sToks, q), Prepared(k, tToks, q), measures)

  /** Graph construction of §2.3 from two prepared strings. Candidate
    * segment pairs come in a fixed order — single × single tokens (J),
    * then rule pairs (S: per segment of S, per rule in
    * `Knowledge.rulesTouching` order, the segments of T equal to the
    * rule's other side), then entity × entity (T) — and a pair listed
    * twice keeps its first place. Each is weighed by msim over the
    * enabled measures; those of weight 0 are dropped.
    */
  def build(k: Knowledge, s: Prepared, t: Prepared, measures: MeasureSet): UsimGraph = {
    require(s.q == t.q, s"strings prepared with different q (${s.q}, ${t.q})")
    val nT = t.segs.length
    val seen = new Array[Boolean](s.segs.length * nT)
    val ws = Array.newBuilder[Double]
    val mS = Array.newBuilder[Long]
    val mT = Array.newBuilder[Long]
    val vs = Array.newBuilder[Segment]
    val vt = Array.newBuilder[Segment]
    def add(si: Int, ti: Int): Unit =
      if (!seen(si * nT + ti)) {
        seen(si * nT + ti) = true
        val w = Measures.msim(k, s, si, t, ti, measures)
        if (w > 0.0) {
          ws += w
          mS += s.masks(si)
          mT += t.masks(ti)
          vs += s.segs(si)
          vt += t.segs(ti)
        }
      }

    if (measures.j) for (si <- s.singles; ti <- t.singles) add(si, ti)
    if (measures.s)
      for (si <- s.ruleSegs; rid <- (s.lhsRules(si) ++ s.rhsRules(si)).distinct) {
        if (s.lhsRules(si).contains(rid)) for (ti <- t.ruleSegs if t.rhsRules(ti).contains(rid)) add(si, ti)
        if (s.rhsRules(si).contains(rid)) for (ti <- t.ruleSegs if t.lhsRules(ti).contains(rid)) add(si, ti)
      }
    if (measures.t) for (si <- s.entities; ti <- t.entities) add(si, ti)
    new UsimGraph(s.length, t.length, ws.result(), mS.result(), mT.result(), vs.result(), vt.result())
  }
}
