package repro.join

import repro.core._

/** Which signature-selection algorithm a join run uses (§3). */
sealed trait SigAlgo { def label: String }
object SigAlgo {
  /** Algorithm 2 — one-overlap prefix filtering. */
  case object UFilter extends SigAlgo { val label = "U-Filter" }
  /** Algorithm 4 — τ overlaps, heuristic TW bound (Ineq. 10). */
  case object AUHeuristic extends SigAlgo { val label = "AU-Filter (heuristics)" }
  /** Algorithm 5 — τ overlaps, dynamic-programming bound. */
  case object AUDp extends SigAlgo { val label = "AU-Filter (DP)" }
  val all: Seq[SigAlgo] = Seq(UFilter, AUHeuristic, AUDp)
}

/** Per-string signature-selection state: the sorted pebble list B, the
  * partition lower bound m, the accumulated-similarity array AS(i, S)
  * (Def 4), and the three selection algorithms. Positions are 1-based
  * as in the paper.
  */
final class SignatureContext(
    val tokens: Vector[String],
    k: Knowledge,
    measures: MeasureSet,
    q: Int,
    order: Map[String, Int],
) {
  val segments: Vector[Segment] = Segments.wellDefined(k, tokens)

  /** B: all pebbles sorted by the global order (Line 1 of Algs 2/4/5). */
  val pebbles: Vector[PebbleInstance] =
    Pebbles.sorted(Pebbles.generate(k, segments, measures, q), order)

  val n: Int = pebbles.length

  /** m = GetMinPartitionSize(S). */
  val m: Int = MinPartition.size(k, segments, tokens.length)

  // -------------------------------------------------------------- groups

  /** Pebble groups B_{P,f}, one `Int` id per (segment P, measure f) in
    * order of first appearance in B: `groupOf(i−1)` is the group of
    * pebble i, `slot(i−1)` its index among the group's pebbles (kept in
    * ascending position order), `groupW(g)` their weights,
    * `groupSeg(g)` the group's segment and `segGroups(P)` its groups.
    */
  private val groupOf = new Array[Int](n)
  private val slot = new Array[Int](n)
  private val (groupW, groupSeg, segGroups): (Array[Array[Double]], Array[Int], Array[Array[Int]]) = {
    val segIds = Array.fill(segments.length)(List.empty[Int])
    val measureOf = scala.collection.mutable.ArrayBuffer.empty[Char]
    val segOf = scala.collection.mutable.ArrayBuffer.empty[Int]
    val size = scala.collection.mutable.ArrayBuffer.empty[Int]
    var i = 0
    while (i < n) {
      val p = pebbles(i)
      val g = segIds(p.segIdx).find(measureOf(_) == p.measure).getOrElse {
        val id = measureOf.length
        measureOf += p.measure; segOf += p.segIdx; size += 0
        segIds(p.segIdx) = id :: segIds(p.segIdx)
        id
      }
      groupOf(i) = g
      slot(i) = size(g)
      size(g) += 1
      i += 1
    }
    val w = size.iterator.map(new Array[Double](_)).toArray
    i = 0
    while (i < n) { w(groupOf(i))(slot(i)) = pebbles(i).weight; i += 1 }
    (w, segOf.toArray, segIds.map(_.reverse.toArray))
  }

  private val maxGroupSize: Int = groupW.iterator.map(_.length).maxOption.getOrElse(0)

  // ------------------------------------------------------------------ AS

  /** asArr(i) = AS(i, S) = Σ_P max_f W(B_{P,f}[i, n]), 1-based; index
    * n+1 holds 0 (nothing removed).
    */
  private val asArr: Array[Double] = {
    val arr = new Array[Double](n + 2)
    val groupSum = new Array[Double](groupW.length)
    val segMax = new Array[Double](segments.length)
    var acc = 0.0
    var i = n
    while (i >= 1) {
      val g = groupOf(i - 1)
      val s = groupSum(g) + pebbles(i - 1).weight
      groupSum(g) = s
      val seg = groupSeg(g)
      if (s > segMax(seg)) { acc += s - segMax(seg); segMax(seg) = s }
      arr(i) = acc
      i -= 1
    }
    arr
  }

  /** AS(i, S) for i ∈ [1, n+1]. */
  def as(i: Int): Double = asArr(i)

  // ----------------------------------------------------------- Algorithm 2

  /** Float slack: 7×(1/7) < 1.0 in doubles must still count as reaching
    * the bound, else θ=1 signatures collapse to empty (unsound). Kept
    * apart from `Usim.AcceptSlack`: it sets signature lengths, so its
    * value changes signatures, not which verified pairs are accepted.
    */
  private val Eps = 1e-9

  /** U-Filter: signature length = largest i with AS(i) ≥ mθ (Lemma 1). */
  def uFilter(theta: Double): Int = {
    val bound = m * theta - Eps
    var i = n
    while (i >= 1 && bound > asArr(i)) i -= 1
    i
  }

  // ----------------------------------------------------------- Algorithm 4

  /** AU-Filter heuristic: largest i with AS(i) + TW_{τ−1}(B[1,i−1]) ≥ mθ
    * (Inequality 10). topPrefix(p) = TW_{τ−1} over the first p pebbles,
    * streamed with a size-(τ−1) min-heap.
    */
  def auHeuristic(theta: Double, tau: Int): Int = {
    require(tau >= 1, s"tau must be >= 1, got $tau")
    if (tau == 1) return uFilter(theta)
    val bound = m * theta - Eps
    val kTop = tau - 1
    val topSum = new Array[Double](n + 1) // topSum(p) over first p pebbles
    val heap = new java.util.PriorityQueue[java.lang.Double](kTop + 1)
    var running = 0.0
    var p = 1
    while (p <= n) {
      val w = pebbles(p - 1).weight
      heap.add(w); running += w
      if (heap.size > kTop) running -= heap.poll()
      topSum(p) = running
      p += 1
    }
    var i = n
    while (i >= 1 && bound > asArr(i) + topSum(i - 1)) i -= 1
    i
  }

  // ----------------------------------------------------------- Algorithm 5

  /** AU-Filter DP: largest i whose DP bound W_i[t, τ−1] certifies
    * AS(i) + W_i[t, τ−1] ≥ mθ; early-terminates on any reaching cell
    * (W_i is monotone in both coordinates).
    *
    * Incremental over i (DESIGN.md §4): going from i+1 to i moves only
    * pebble i from the prefix B[1, i−1] into the suffix B[i, n], so only
    * its group's row R(g, ·) = W(B_g[i, n]) + TW_·(B_g[1, i−1]) and its
    * segment's row V_i[P, ·] (Eqs 13–14) change; the max-plus DP over
    * segments (Eq 12) is then rerun on preallocated rows.
    */
  def auDp(theta: Double, tau: Int): Int = {
    require(tau >= 1, s"tau must be >= 1, got $tau")
    if (tau == 1) return uFilter(theta)
    val bound = m * theta - Eps
    val t = segments.length
    val suffix = new Array[Double](groupW.length) // W(B_g[i, n])
    val r = new Array[Double](groupW.length * tau) // R(g, c) at g·τ + c
    val v = new Array[Double](t * tau) // V_i[P, c] at P·τ + c
    val sorted = new Array[Double](maxGroupSize)
    val prev = new Array[Double](tau) // d ∈ [0, τ−1]
    val cur = new Array[Double](tau)

    /** R(g, ·) with the group's first `k` pebbles in the prefix; the
      * top-c weights are summed largest first.
      */
    def setR(g: Int, k: Int): Unit = {
      System.arraycopy(groupW(g), 0, sorted, 0, k)
      java.util.Arrays.sort(sorted, 0, k)
      var top = 0.0
      r(g * tau) = suffix(g) + top
      var c = 1
      while (c < tau) {
        if (c <= k) top += sorted(k - c)
        r(g * tau + c) = suffix(g) + top
        c += 1
      }
    }

    /** V_i[P, c] = R(P, i, c) − R(P, i, 0), R(P, i, c) = max_f R(g_f, c). */
    def setV(seg: Int): Unit = {
      val gs = segGroups(seg)
      val base = seg * tau
      var c = 0
      while (c < tau) {
        var best = 0.0
        var j = 0
        while (j < gs.length) {
          val x = r(gs(j) * tau + c)
          if (x > best) best = x
          j += 1
        }
        v(base + c) = best
        c += 1
      }
      val r0 = v(base)
      c = 0
      while (c < tau) { v(base + c) -= r0; c += 1 }
    }

    /** W_i[p, d] = max_c W_i[p−1, d−c] + V_i[p, c], Eq (12); true iff
      * some cell reaches the bound (Lines 13–14).
      */
    def reaches(as: Double): Boolean = {
      java.util.Arrays.fill(prev, 0.0)
      var p = 0
      while (p < t) {
        val base = p * tau
        cur(0) = 0.0
        var d = 1
        while (d < tau) {
          var best = 0.0
          var c = 0
          while (c <= d) {
            val x = prev(d - c) + v(base + c)
            if (x > best) best = x
            c += 1
          }
          cur(d) = best
          if (as + best >= bound) return true
          d += 1
        }
        System.arraycopy(cur, 0, prev, 0, tau)
        p += 1
      }
      false
    }

    // i = n + 1: every pebble is in the prefix
    var g = 0
    while (g < groupW.length) { setR(g, groupW(g).length); g += 1 }
    var seg = 0
    while (seg < t) { setV(seg); seg += 1 }
    var i = n
    while (i >= 1) {
      if (asArr(i) >= bound) return i // d = 0 cell already suffices
      g = groupOf(i - 1)
      suffix(g) += groupW(g)(slot(i - 1))
      setR(g, slot(i - 1))
      setV(groupSeg(g))
      if (reaches(asArr(i))) return i
      i -= 1
    }
    0
  }

  // ------------------------------------------------------------ signature

  /** Distinct keys of the first `len` pebbles — what inverted lists index. */
  def signature(len: Int): Set[String] =
    pebbles.iterator.take(len).map(_.key).toSet

  /** Signature prefix length chosen by the given algorithm. */
  def selectLen(algo: SigAlgo, theta: Double, tau: Int): Int = algo match {
    case SigAlgo.UFilter     => uFilter(theta)
    case SigAlgo.AUHeuristic => auHeuristic(theta, tau)
    case SigAlgo.AUDp        => auDp(theta, tau)
  }

  /** Select the signature with the given algorithm. */
  def select(algo: SigAlgo, theta: Double, tau: Int): Set[String] =
    signature(selectLen(algo, theta, tau))
}

object SignatureContext {
  def apply(
      k: Knowledge,
      s: String,
      measures: MeasureSet = MeasureSet.TJS,
      q: Int = Measures.DefaultQ,
      order: Map[String, Int] = Map.empty,
  ): SignatureContext =
    new SignatureContext(Tokenizer.tokens(s), k, measures, q, order)
}
