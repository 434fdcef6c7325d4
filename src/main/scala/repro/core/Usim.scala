package repro.core

/** The unified similarity USIM (Def 3): exact (exponential, Theorem 1)
  * and approximate (Algorithm 1) computation over the conflict graph.
  */
object Usim {

  /** Default t parameter of Algorithm 1 (improvement floor 1/t). */
  val DefaultT = 20

  /** Acceptance slack of every join's verification: a pair is a result
    * iff its similarity ≥ θ − AcceptSlack, so that a similarity equal to
    * θ in exact arithmetic but a rounding error below it in doubles is
    * kept. Shared by the local and Spark joins and the baselines.
    */
  val AcceptSlack = 1e-12

  /** Vertex-count cap for the exact algorithm — beyond this the
    * branch-and-bound may blow up, mirroring the paper's restriction of
    * the exact algorithm to small pairs (§5.2).
    */
  val ExactVertexCap = 34

  def graph(
      k: Knowledge,
      s: String,
      t: String,
      measures: MeasureSet = MeasureSet.TJS,
      q: Int = Measures.DefaultQ,
  ): UsimGraph =
    UsimGraph.build(k, Prepared(k, s, q), Prepared(k, t, q), measures)

  // ---------------------------------------------------------------- approx

  /** Algorithm 1: SquareImp seed + GetSim claw-improvement loop.
    *
    * Moves are evaluated numerically: vertices of an independent set
    * have pairwise-disjoint masks, so removing N(v, A) is an XOR on the
    * coverage masks and a subtraction on the weight — no allocation in
    * the O(n²) pair-talon scan.
    */
  /** When every vertex pairs two single tokens, partitions are forced to
    * all-singletons and USIM is exactly a maximum-weight assignment —
    * solved optimally by Hungarian in O(len³), no MIS needed. This is
    * the common case for J-only joins and for candidate pairs with no
    * knowledge hits.
    */
  private def singlesOnly(g: UsimGraph): Boolean = {
    var i = 0
    while (i < g.size) {
      if (java.lang.Long.bitCount(g.maskS(i)) != 1 ||
          java.lang.Long.bitCount(g.maskT(i)) != 1) return false
      i += 1
    }
    true
  }

  private def solveSingles(g: UsimGraph): (Double, Set[Int]) = {
    val w = Array.ofDim[Double](g.sLen, g.tLen)
    var i = 0
    while (i < g.size) {
      val r = java.lang.Long.numberOfTrailingZeros(g.maskS(i))
      val c = java.lang.Long.numberOfTrailingZeros(g.maskT(i))
      if (g.weights(i) > w(r)(c)) w(r)(c) = g.weights(i)
      i += 1
    }
    val (total, assign) = Hungarian.solve(w)
    val den = math.max(g.sLen, g.tLen)
    val sel = (0 until g.size).filter { v =>
      val r = java.lang.Long.numberOfTrailingZeros(g.maskS(v))
      val c = java.lang.Long.numberOfTrailingZeros(g.maskT(v))
      assign(r) == c && math.abs(g.weights(v) - w(r)(c)) < 1e-15
    }.toSet
    (if (den == 0) 0.0 else total / den, sel)
  }

  def approxOnGraph(g: UsimGraph, tParam: Int = DefaultT): (Double, Set[Int]) = {
    val n = g.size
    if (n > 0 && singlesOnly(g)) return solveSingles(g)
    val a = scala.collection.mutable.LinkedHashSet.empty[Int] ++ SquareImp.solve(g)
    if (n == 0) return (g.getSim(a), a.toSet)

    var sumW = 0.0
    var mS = 0L
    var mT = 0L
    for (i <- a) { sumW += g.weights(i); mS |= g.maskS(i); mT |= g.maskT(i) }
    var cur = g.simOf(sumW, a.size, mS, mT)

    val pairLimit = SquareImp.DefaultPairTalonLimit
    // per-candidate conflict aggregates against the current A
    val confW = new Array[Double](n)
    val confCnt = new Array[Int](n)
    val confMS = new Array[Long](n)
    val confMT = new Array[Long](n)
    val confList = new Array[Array[Int]](n)

    var iter = 0
    var progress = true
    while (progress && iter < tParam) {
      progress = false
      iter += 1
      val aArr = a.toArray
      var v = 0
      while (v < n) {
        if (!a.contains(v)) {
          var w = 0.0; var c = 0; var ms = 0L; var mt = 0L
          val lst = Array.newBuilder[Int]
          var j = 0
          while (j < aArr.length) {
            val u = aArr(j)
            if ((g.maskS(u) & g.maskS(v)) != 0L || (g.maskT(u) & g.maskT(v)) != 0L) {
              w += g.weights(u); c += 1; ms |= g.maskS(u); mt |= g.maskT(u)
              lst += u
            }
            j += 1
          }
          confW(v) = w; confCnt(v) = c; confMS(v) = ms; confMT(v) = mt
          confList(v) = lst.result()
        }
        v += 1
      }

      var bestSim = cur
      var bestAdd1 = -1
      var bestAdd2 = -1
      // talon sets of size 1
      v = 0
      while (v < n) {
        if (!a.contains(v)) {
          val sim = g.simOf(sumW - confW(v) + g.weights(v), a.size - confCnt(v) + 1,
            (mS ^ confMS(v)) | g.maskS(v), (mT ^ confMT(v)) | g.maskT(v))
          if (sim > bestSim) { bestSim = sim; bestAdd1 = v; bestAdd2 = -1 }
        }
        v += 1
      }
      // talon sets of size 2
      if (n <= pairLimit) {
        var v1 = 0
        while (v1 < n) {
          if (!a.contains(v1)) {
            var v2 = v1 + 1
            while (v2 < n) {
              if (!a.contains(v2) && !g.conflict(v1, v2)) {
                // shared removed vertices: subtract the double count
                var sharedW = 0.0
                var sharedC = 0
                val l1 = confList(v1)
                var i1 = 0
                while (i1 < l1.length) {
                  val u = l1(i1)
                  if ((g.maskS(u) & confMS(v2)) != 0L || (g.maskT(u) & confMT(v2)) != 0L) {
                    // u's disjoint mask can only intersect conf(v2)'s if u ∈ conf(v2)
                    sharedW += g.weights(u); sharedC += 1
                  }
                  i1 += 1
                }
                val w = sumW - confW(v1) - confW(v2) + sharedW + g.weights(v1) + g.weights(v2)
                val c = a.size - confCnt(v1) - confCnt(v2) + sharedC + 2
                val ms = (mS ^ (confMS(v1) | confMS(v2))) | g.maskS(v1) | g.maskS(v2)
                val mt = (mT ^ (confMT(v1) | confMT(v2))) | g.maskT(v1) | g.maskT(v2)
                val sim = g.simOf(w, c, ms, mt)
                if (sim > bestSim) { bestSim = sim; bestAdd1 = v1; bestAdd2 = v2 }
              }
              v2 += 1
            }
          }
          v1 += 1
        }
      }
      if (bestAdd1 >= 0 && bestSim > cur + 1e-12) {
        // Accept the best-improving claw. The paper floors improvements at
        // 1/t to bound iterations by ⌊t⌋; we bound iterations by tParam
        // directly, which keeps the polynomial guarantee while not
        // rejecting small-but-real gains on long strings.
        val adds = if (bestAdd2 >= 0) Seq(bestAdd1, bestAdd2) else Seq(bestAdd1)
        for (add <- adds; u <- confList(add)) if (a.remove(u)) {
          sumW -= g.weights(u); mS ^= g.maskS(u); mT ^= g.maskT(u)
        }
        for (add <- adds) {
          a += add
          sumW += g.weights(add); mS |= g.maskS(add); mT |= g.maskT(add)
        }
        cur = g.simOf(sumW, a.size, mS, mT)
        progress = true
      }
    }
    (cur, a.toSet)
  }

  /** Approximate unified similarity between two raw strings. */
  def approx(
      k: Knowledge,
      s: String,
      t: String,
      measures: MeasureSet = MeasureSet.TJS,
      q: Int = Measures.DefaultQ,
      tParam: Int = DefaultT,
  ): Double =
    approx(k, Prepared(k, s, q), Prepared(k, t, q), measures, tParam)

  /** Algorithm 1 on two prepared strings: what every join verifies a
    * candidate pair with.
    */
  def approx(k: Knowledge, s: Prepared, t: Prepared, measures: MeasureSet, tParam: Int): Double =
    approxOnGraph(UsimGraph.build(k, s, t, measures), tParam)._1

  // ---------------------------------------------------------------- exact

  /** Exact USIM by branch-and-bound over independent sets. */
  def exactOnGraph(g: UsimGraph): Double = {
    val n = g.size
    if (n > 0 && singlesOnly(g)) return solveSingles(g)._1 // assignment is exact here
    require(n <= ExactVertexCap, s"exact USIM limited to $ExactVertexCap vertices, got $n")
    if (n == 0) return g.getSim(Nil)

    val order = g.weights.indices.sortBy(i => (-g.weights(i), i)).toArray
    val w = order.map(g.weights)
    val ms = order.map(g.maskS)
    val mt = order.map(g.maskT)
    val suffix = new Array[Double](n + 1)
    var i = n - 1
    while (i >= 0) { suffix(i) = suffix(i + 1) + w(i); i -= 1 }

    // Constant lower bound of the denominator: no partition of S (T) can
    // have fewer than ceil(len / longest-segment) parts.
    val kS = math.max(1, g.sSegs.map(_.length).foldLeft(1)(math.max))
    val kT = math.max(1, g.tSegs.map(_.length).foldLeft(1)(math.max))
    val minDen = math.max(1,
      math.max((g.sLen + kS - 1) / kS, (g.tLen + kT - 1) / kT))

    var best = approxOnGraph(g)._1 // seed with the approximation (a valid solution)

    def dfs(idx: Int, mS: Long, mT: Long, cnt: Int, sumW: Double): Unit = {
      val cur = g.simOf(sumW, cnt, mS, mT)
      if (cur > best) best = cur
      if (idx >= n) return
      if ((sumW + suffix(idx)) / minDen <= best) return // optimistic bound
      // include idx when compatible
      if ((mS & ms(idx)) == 0L && (mT & mt(idx)) == 0L)
        dfs(idx + 1, mS | ms(idx), mT | mt(idx), cnt + 1, sumW + w(idx))
      dfs(idx + 1, mS, mT, cnt, sumW)
    }
    dfs(0, 0L, 0L, 0, 0.0)
    best
  }

  /** Exact unified similarity between two raw strings (small pairs only). */
  def exact(
      k: Knowledge,
      s: String,
      t: String,
      measures: MeasureSet = MeasureSet.TJS,
      q: Int = Measures.DefaultQ,
  ): Double = exactOnGraph(graph(k, s, t, measures, q))

  // ------------------------------------------------------- explicit Eq (6)

  /** SIM(PS, PT) of Eq (6) for explicit partitions, via Hungarian. */
  def simForPartitions(
      k: Knowledge,
      ps: Seq[Segment],
      pt: Seq[Segment],
      measures: MeasureSet = MeasureSet.TJS,
      q: Int = Measures.DefaultQ,
  ): Double = {
    if (ps.isEmpty || pt.isEmpty) return 0.0
    val m = Array.tabulate(ps.length, pt.length) { (i, j) =>
      Measures.msim(k, ps(i).tokens, pt(j).tokens, measures, q)
    }
    Hungarian.maxWeight(m) / math.max(ps.length, pt.length)
  }
}
