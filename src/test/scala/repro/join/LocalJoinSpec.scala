package repro.join

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.TextGen

class LocalJoinSpec extends AnyFunSuite {
  val gctx: TextGen.GenContext = TextGen.context(TextGen.MedLite)
  val k: Knowledge = gctx.knowledge
  val ds: TextGen.JoinDataset = TextGen.joinDataset(gctx, n = 120, seed = 5L)

  private def pairSet(v: Vector[(Int, Int, Double)]): Set[(Int, Int)] =
    v.map(r => (r._1, r._2)).toSet

  test("U-Filter self-join equals brute force (no false negatives, τ=1)") {
    for (theta <- Seq(0.7, 0.8, 0.9)) {
      val cfg = LocalJoin.Config(theta, 1, SigAlgo.UFilter)
      val (got, _) = LocalJoin.join(k, ds.strings, ds.strings, cfg, selfJoin = true)
      val want = LocalJoin.bruteForce(k, ds.strings, ds.strings, cfg, selfJoin = true)
      assert(pairSet(got) == pairSet(want), s"theta=$theta")
    }
  }

  test("AU-Filter results are a subset of U-Filter, shrinking with τ") {
    val theta = 0.75
    val resultsByTau = (1 to 4).map { tau =>
      val cfg = LocalJoin.Config(theta, tau, SigAlgo.AUHeuristic)
      pairSet(LocalJoin.join(k, ds.strings, ds.strings, cfg, selfJoin = true)._1)
    }
    for (i <- 1 until resultsByTau.length)
      assert(resultsByTau(i).subsetOf(resultsByTau(i - 1)), s"tau=${i + 1} not ⊆ tau=$i")
  }

  test("AU heuristic and DP joins return identical results") {
    for (theta <- Seq(0.75, 0.85); tau <- Seq(2, 3)) {
      val h = LocalJoin.join(k, ds.strings, ds.strings,
        LocalJoin.Config(theta, tau, SigAlgo.AUHeuristic), selfJoin = true)._1
      val d = LocalJoin.join(k, ds.strings, ds.strings,
        LocalJoin.Config(theta, tau, SigAlgo.AUDp), selfJoin = true)._1
      assert(pairSet(h) == pairSet(d), s"theta=$theta tau=$tau")
    }
  }

  test("DP produces no more candidates than the heuristic") {
    for (tau <- Seq(2, 3)) {
      val cfgH = LocalJoin.Config(0.75, tau, SigAlgo.AUHeuristic)
      val cfgD = LocalJoin.Config(0.75, tau, SigAlgo.AUDp)
      val (_, statsH) = LocalJoin.join(k, ds.strings, ds.strings, cfgH, selfJoin = true)
      val (_, statsD) = LocalJoin.join(k, ds.strings, ds.strings, cfgD, selfJoin = true)
      assert(statsD.candidates <= statsH.candidates, s"tau=$tau")
      assert(statsD.avgSignatureLen <= statsH.avgSignatureLen + 1e-9, s"tau=$tau")
    }
  }

  test("two-collection join agrees with brute force") {
    val left = ds.strings.take(60)
    val right = ds.strings.drop(60)
    val cfg = LocalJoin.Config(0.75, 1, SigAlgo.UFilter)
    val (got, _) = LocalJoin.join(k, left, right, cfg)
    val want = LocalJoin.bruteForce(k, left, right, cfg)
    assert(pairSet(got) == pairSet(want))
  }

  test("join finds the planted similar pairs that verify above θ") {
    val cfg = LocalJoin.Config(0.7, 1, SigAlgo.UFilter)
    val (got, _) = LocalJoin.join(k, ds.strings, ds.strings, cfg, selfJoin = true)
    val verified = ds.truePairs.filter { case (i, j) =>
      Usim.approx(k, ds.strings(i), ds.strings(j)) >= 0.7 }
    assert(verified.nonEmpty)
    assert(verified.subsetOf(pairSet(got)))
  }

  test("measure-restricted joins find fewer pairs than TJS") {
    val full = pairSet(LocalJoin.join(k, ds.strings, ds.strings,
      LocalJoin.Config(0.75, 1, SigAlgo.UFilter, MeasureSet.TJS), selfJoin = true)._1)
    for (m <- Seq(MeasureSet.J, MeasureSet.S, MeasureSet.T)) {
      val sub = pairSet(LocalJoin.join(k, ds.strings, ds.strings,
        LocalJoin.Config(0.75, 1, SigAlgo.UFilter, m), selfJoin = true)._1)
      assert(sub.size <= full.size, s"measure ${m.label}")
    }
  }

  test("stats are coherent: candidates <= processed, results <= candidates") {
    val (res, st) = LocalJoin.join(k, ds.strings, ds.strings,
      LocalJoin.Config(0.8, 2, SigAlgo.AUDp), selfJoin = true)
    assert(st.candidates <= st.processedPairs)
    assert(st.results == res.length && st.results <= st.candidates)
    assert(st.avgSignatureLen > 0)
  }

  test("filterStage τ monotonicity: higher τ yields fewer candidates") {
    val order = LocalJoin.buildOrder(k, ds.strings, MeasureSet.TJS, 2)
    val cfg = LocalJoin.Config(0.75, 4, SigAlgo.AUHeuristic)
    val sigs = LocalJoin.signatures(k, ds.strings, order, cfg)
    val counts = (1 to 4).map(t => LocalJoin.filterStage(sigs, sigs, t, selfJoin = true)._2.size)
    assert(counts == counts.sorted.reverse)
  }

  test("empty collections join to empty") {
    val cfg = LocalJoin.Config(0.8)
    val (res, st) = LocalJoin.join(k, Vector.empty, Vector.empty, cfg)
    assert(res.isEmpty && st.processedPairs == 0)
  }

  test("empty and null strings join without error and pair with nothing") {
    val strings = ds.strings.take(30) ++ Vector("", null) ++ ds.strings.slice(30, 60)
    for (algo <- SigAlgo.all) {
      val cfg = LocalJoin.Config(0.75, 2, algo)
      val (res, _) = LocalJoin.join(k, strings, strings, cfg, selfJoin = true)
      assert(res.forall(r => r._1 != 30 && r._1 != 31 && r._2 != 30 && r._2 != 31), s"$algo")
    }
  }

  test("a string over 64 tokens that is no candidate's partner joins without error") {
    // Token masks are 64-bit, so preparing this string would throw; it
    // shares no gram with the rest, so verification never prepares it.
    val long = Vector.fill(65)("ßßß").mkString(" ")
    val strings = ds.strings.take(40) :+ long
    for (algo <- SigAlgo.all) {
      val cfg = LocalJoin.Config(0.75, 2, algo)
      val (res, _) = LocalJoin.join(k, strings, strings, cfg, selfJoin = true)
      val want = LocalJoin.join(k, strings.init, strings.init, cfg, selfJoin = true)._1
      assert(pairSet(res) == pairSet(want), s"$algo")
    }
  }

  test("identical duplicate strings always join at any θ") {
    val strings = Vector("latte cake espresso", "latte cake espresso", "unrelated tokens here")
    for (algo <- SigAlgo.all; theta <- Seq(0.8, 1.0)) {
      val cfg = LocalJoin.Config(theta, 1, algo)
      val (res, _) = LocalJoin.join(k, strings, strings, cfg, selfJoin = true)
      assert(pairSet(res).contains((0, 1)), s"$algo theta=$theta")
    }
  }
}
