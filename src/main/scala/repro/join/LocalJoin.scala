package repro.join

import repro.core._

/** Counters and timings of one join run. `processedPairs` is the
  * paper's T_τ (Eq 16) and `candidates` its V_τ.
  */
final case class JoinStats(
    processedPairs: Long,
    candidates: Long,
    results: Long,
    avgSignatureLen: Double,
    sigNanos: Long,
    filterNanos: Long,
    verifyNanos: Long,
) {
  def totalNanos: Long = sigNanos + filterNanos + verifyNanos
  def totalMillis: Double = totalNanos / 1e6
}

/** Single-node reference implementation of the unified set joins
  * (Algorithms 3 and 6). It is the ground truth the Spark join is
  * tested against, and the engine the sampling-based τ estimator runs
  * on (Algorithm 7 runs the *filtering stage* over tiny samples).
  */
object LocalJoin {

  final case class Config(
      theta: Double,
      tau: Int = 1,
      algo: SigAlgo = SigAlgo.UFilter,
      measures: MeasureSet = MeasureSet.TJS,
      q: Int = Measures.DefaultQ,
      tParam: Int = Usim.DefaultT,
  )

  /** Per-collection global frequency order, shared by both sides as the
    * paper requires a single global order.
    */
  def buildOrder(
      k: Knowledge,
      strings: Iterable[String],
      measures: MeasureSet,
      q: Int,
  ): Map[String, Int] =
    Pebbles.frequencyOrder(strings.iterator.map { s =>
      val toks = Tokenizer.tokens(s)
      Pebbles.generate(k, Segments.wellDefined(k, toks), measures, q)
    })

  def signatures(
      k: Knowledge,
      strings: IndexedSeq[String],
      order: Map[String, Int],
      cfg: Config,
  ): IndexedSeq[Set[String]] =
    strings.map { s =>
      new SignatureContext(Tokenizer.tokens(s), k, cfg.measures, cfg.q, order)
        .select(cfg.algo, cfg.theta, cfg.tau)
    }

  /** Filtering stage only (Lines 1-8 of Algorithm 6): returns
    * (T_τ processed pairs, candidate pairs sharing ≥ τ keys, sorted).
    * Used by the full join, the τ estimator and the baselines. Each
    * string of `sigS` probes int posting lists of `sigT` with a dense
    * counter reset after the probe (DESIGN.md §4). A self-join (the same
    * collection twice) counts only partners after the probe, so i < j.
    */
  def filterStage(
      sigS: IndexedSeq[Set[String]],
      sigT: IndexedSeq[Set[String]],
      tau: Int,
      selfJoin: Boolean,
  ): (Long, Vector[(Int, Int)]) = {
    val keyIds = scala.collection.mutable.HashMap.empty[String, Int]
    def intern(sigs: IndexedSeq[Set[String]]): Array[Array[Int]] =
      sigs.iterator.map(_.iterator.map(key => keyIds.getOrElseUpdate(key, keyIds.size)).toArray).toArray
    val keysT = intern(sigT)
    val keysS = if (selfJoin) keysT else intern(sigS)
    val lists = postings(keysT, keyIds.size)
    val processed =
      if (selfJoin) lists.iterator.map(l => l.length.toLong * (l.length - 1) / 2).sum
      else keysS.iterator.flatMap(_.iterator).map(lists(_).length.toLong).sum

    val count = new Array[Int](keysT.length)
    val touched = new Array[Int](keysT.length)
    val cands = Vector.newBuilder[(Int, Int)]
    var i = 0
    while (i < keysS.length) {
      val keys = keysS(i)
      var nTouched = 0
      var k = 0
      while (k < keys.length) {
        val l = lists(keys(k))
        var p = if (selfJoin) java.util.Arrays.binarySearch(l, i) + 1 else 0
        while (p < l.length) {
          val j = l(p)
          if (count(j) == 0) { touched(nTouched) = j; nTouched += 1 }
          count(j) += 1
          p += 1
        }
        k += 1
      }
      var nCands = 0
      var m = 0
      while (m < nTouched) {
        val j = touched(m)
        if (count(j) >= tau) { touched(nCands) = j; nCands += 1 }
        count(j) = 0
        m += 1
      }
      java.util.Arrays.sort(touched, 0, nCands)
      m = 0
      while (m < nCands) { cands += ((i, touched(m))); m += 1 }
      i += 1
    }
    (processed, cands.result())
  }

  /** Posting list of every key id: the ids of the strings holding it, ascending. */
  private def postings(keys: Array[Array[Int]], nKeys: Int): Array[Array[Int]] = {
    val len = new Array[Int](nKeys)
    for (ks <- keys; k <- ks) len(k) += 1
    val lists = len.map(new Array[Int](_))
    java.util.Arrays.fill(len, 0)
    for (i <- keys.indices; k <- keys(i)) { lists(k)(len(k)) = i; len(k) += 1 }
    lists
  }

  /** Full filter-and-verification join. For a self-join pass the same
    * collection twice with `selfJoin = true` (pairs reported with
    * sId < tId). Verification prepares each string on its first
    * candidate pair ([[Prepared.lazily]]).
    */
  def join(
      k: Knowledge,
      left: IndexedSeq[String],
      right: IndexedSeq[String],
      cfg: Config,
      selfJoin: Boolean = false,
      precomputedOrder: Option[Map[String, Int]] = None,
  ): (Vector[(Int, Int, Double)], JoinStats) = {
    val order = precomputedOrder.getOrElse(
      buildOrder(k, if (selfJoin) left else left ++ right, cfg.measures, cfg.q))

    val t0 = System.nanoTime()
    val sigS = signatures(k, left, order, cfg)
    val sigT = if (selfJoin) sigS else signatures(k, right, order, cfg)
    val t1 = System.nanoTime()
    val (processed, cands) = filterStage(sigS, sigT, cfg.tau, selfJoin)
    val t2 = System.nanoTime()
    val prepS = Prepared.lazily(k, left, cfg.q)
    val prepT = if (selfJoin) prepS else Prepared.lazily(k, right, cfg.q)
    val out = cands.flatMap { case (si, ti) =>
      val sim = Usim.approx(k, prepS(si), prepT(ti), cfg.measures, cfg.tParam)
      if (sim >= cfg.theta - Usim.AcceptSlack) Some((si, ti, sim)) else None
    }
    val t3 = System.nanoTime()
    val avgSig = if (left.isEmpty) 0.0
                 else (sigS.iterator.map(_.size).sum + sigT.iterator.map(_.size).sum).toDouble /
                      (sigS.length + sigT.length)
    (out,
     JoinStats(processed, cands.length, out.length, avgSig, t1 - t0, t2 - t1, t3 - t2))
  }

  /** Brute-force verify-all join — the oracle the filtered joins are
    * compared against in tests (no filtering, exact candidate set).
    */
  def bruteForce(
      k: Knowledge,
      left: IndexedSeq[String],
      right: IndexedSeq[String],
      cfg: Config,
      selfJoin: Boolean = false,
      useExact: Boolean = false,
  ): Vector[(Int, Int, Double)] = {
    val out = Vector.newBuilder[(Int, Int, Double)]
    val prepS = Prepared.lazily(k, left, cfg.q)
    val prepT = if (selfJoin) prepS else Prepared.lazily(k, right, cfg.q)
    for (i <- left.indices; j <- right.indices if !selfJoin || i < j) {
      val sim =
        if (useExact) Usim.exactOnGraph(UsimGraph.build(k, prepS(i), prepT(j), cfg.measures))
        else Usim.approx(k, prepS(i), prepT(j), cfg.measures, cfg.tParam)
      if (sim >= cfg.theta - Usim.AcceptSlack) out += ((i, j, sim))
    }
    out.result()
  }
}
