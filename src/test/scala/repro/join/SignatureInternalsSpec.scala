package repro.join

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropHelpers
import repro.core._
import repro.data.TextGen

/** Brute-force cross-checks of the AS / TW machinery against the
  * definitions (Def 4, Eqs 7-8) computed naively.
  */
class SignatureInternalsSpec extends AnyFunSuite with PropHelpers {
  val gctx: TextGen.GenContext = TextGen.context(TextGen.MedLite)

  private def naiveAs(ctx: SignatureContext, i: Int): Double = {
    // Def 4: sum over segments of max over measures of the weight mass
    // of that (segment, measure)'s pebbles at positions >= i.
    val byGroup = ctx.pebbles.zipWithIndex.groupBy { case (p, _) => (p.segIdx, p.measure) }
    val perSeg = byGroup.toSeq
      .map { case ((seg, _), xs) =>
        seg -> xs.collect { case (p, idx) if idx + 1 >= i => p.weight }.sum
      }
      .groupBy(_._1)
      .view
      .mapValues(_.map(_._2).max)
    perSeg.values.sum
  }

  /** Algorithm 5 straight from Eqs (12–14): at every i, V_i[P, c] is
    * recomputed per segment from `pebbles` and the whole W_i table is
    * filled with no early exit. The length is the largest i with
    * AS(i) ≥ mθ or AS(i) + W_i[t, τ−1] ≥ mθ (0 if none).
    */
  private def naiveAuDp(ctx: SignatureContext, theta: Double, tau: Int): Int = {
    val bound = ctx.m * theta - 1e-9
    val positioned = ctx.pebbles.zipWithIndex.map { case (p, idx) => (p, idx + 1) }
    def reaches(i: Int): Boolean = {
      val v = ctx.segments.indices.map { seg =>
        val groups = positioned.filter(_._1.segIdx == seg).groupBy(_._1.measure).values
        // R(P, i, c) = max_f W(B_{P,f}[i, n]) + TW_c(B_{P,f}[1, i−1])
        def r(c: Int): Double = groups.map { g =>
          g.collect { case (p, pos) if pos >= i => p.weight }.sum +
            g.collect { case (p, pos) if pos < i => p.weight }.sorted.reverse.take(c).sum
        }.maxOption.getOrElse(0.0)
        (0 until tau).map(c => r(c) - r(0))
      }
      val w = v.foldLeft(IndexedSeq.fill(tau)(0.0)) { (prev, vp) =>
        (0 until tau).map(d => (0 to d).map(c => prev(d - c) + vp(c)).max)
      }
      val as = naiveAs(ctx, i)
      as >= bound || as + w(tau - 1) >= bound
    }
    (ctx.n to 1 by -1).find(reaches).getOrElse(0)
  }

  private def randomCtx(seed: Long, g: TextGen.GenContext = gctx): SignatureContext = {
    val rng = new scala.util.Random(seed)
    val cls = Seq("S", "J", "T", "JS", "TS", "TJ", "TJS")(rng.nextInt(7))
    val (s, _, _) = TextGen.plantPair(g, cls, rng)
    new SignatureContext(Tokenizer.tokens(s), g.knowledge, MeasureSet.TJS, 2, Map.empty)
  }

  private val dpThetas = Seq(0.5, 0.7, 0.85, 0.95, 1.0)

  private def assertDpMatchesNaive(c: SignatureContext, clue: String): Unit =
    for (theta <- dpThetas; tau <- 1 to 8)
      assert(c.auDp(theta, tau) == naiveAuDp(c, theta, tau), s"$clue θ=$theta τ=$tau")

  test("property: AS(i) matches the naive Def-4 computation at every i") {
    check(Gen.choose(0L, 500L), n = 25) { seed =>
      val c = randomCtx(seed)
      for (i <- 1 to c.n + 1)
        assert(math.abs(c.as(i) - naiveAs(c, i)) < 1e-9, s"seed $seed i=$i")
    }
  }

  test("property: U-Filter boundary is exactly the Lemma-1 stopping index") {
    check(Gen.choose(0L, 500L), n = 25) { seed =>
      val c = randomCtx(seed)
      for (theta <- Seq(0.7, 0.85)) {
        val i = c.uFilter(theta)
        val bound = c.m * theta - 1e-9
        if (i >= 1) assert(c.as(i) >= bound)
        if (i < c.n) assert(c.as(i + 1) < bound)
        if (i == 0) assert(c.n == 0 || c.as(1) < bound)
      }
    }
  }

  test("property: heuristic boundary satisfies Inequality (10) exactly") {
    check(Gen.choose(0L, 500L), n = 25) { seed =>
      val c = randomCtx(seed)
      val tau = 3
      for (theta <- Seq(0.7, 0.85)) {
        val i = c.auHeuristic(theta, tau)
        val bound = c.m * theta - 1e-9
        def tw(p: Int): Double =
          c.pebbles.take(p).map(_.weight).sorted.reverse.take(tau - 1).sum
        if (i >= 1) assert(c.as(i) + tw(i - 1) >= bound, s"seed $seed θ=$theta at i")
        if (i < c.n && i >= 0) assert(c.as(i + 1) + tw(i) < bound, s"seed $seed θ=$theta at i+1")
      }
    }
  }

  test("property: DP boundary never exceeds the heuristic boundary") {
    check(Gen.choose(500L, 900L), n = 25) { seed =>
      val c = randomCtx(seed)
      for (theta <- Seq(0.7, 0.9); tau <- Seq(2, 4))
        assert(c.auDp(theta, tau) <= c.auHeuristic(theta, tau))
    }
  }

  test("property: AU-DP equals the naive Eqs (12-14) DP on MED-lite and WIKI-lite") {
    val wctx = TextGen.context(TextGen.WikiLite)
    for ((name, g) <- Seq("MED" -> gctx, "WIKI" -> wctx))
      check(Gen.choose(0L, 5000L), n = 40) { seed =>
        assertDpMatchesNaive(randomCtx(seed, g), s"$name seed $seed")
      }
  }

  test("AU-DP equals the naive DP on the empty string, one token and a pebble-less segment") {
    val k = Knowledge.figure1
    def ctx(s: String, m: MeasureSet) = new SignatureContext(Tokenizer.tokens(s), k, m, 2, Map.empty)
    val empty = ctx("", MeasureSet.TJS)
    assert(empty.n == 0 && empty.auDp(0.85, 4) == 0)
    assertDpMatchesNaive(empty, "empty")
    assertDpMatchesNaive(ctx("espresso", MeasureSet.TJS), "one token")
    for ((s, m) <- Seq("latte zzqx espresso" -> MeasureSet.T, "coffee shop zzqx cake" -> MeasureSet.S)) {
      val c = ctx(s, m)
      assert(c.segments.indices.exists(seg => !c.pebbles.exists(_.segIdx == seg)), s)
      assert(c.n > 0, s)
      assertDpMatchesNaive(c, s)
    }
  }

  test("frequency order demotes common pebbles out of tight signatures") {
    // two strings sharing a frequent filler token; with a frequency order
    // the filler's gram pebbles sort late and are dropped first.
    val strings = Vector.fill(8)("zzfiller unique" + scala.util.Random.nextInt()) :+
      "zzfiller rareword"
    val insts = strings.map { s =>
      val toks = Tokenizer.tokens(s)
      Pebbles.generate(gctx.knowledge, Segments.wellDefined(gctx.knowledge, toks),
        MeasureSet.J, 2)
    }
    val order = Pebbles.frequencyOrder(insts.iterator.map(x => x: Iterable[PebbleInstance]))
    // grams of "zzfiller" occur in all 9 strings — they must rank last
    val fillerRank = order("g:zz")
    val rareRank = order("g:ra")
    assert(fillerRank > rareRank)
  }

  test("signature of a string is stable across repeated context builds") {
    val c1 = SignatureContext(gctx.knowledge, "alpha beta gamma")
    val c2 = SignatureContext(gctx.knowledge, "alpha beta gamma")
    assert(c1.pebbles == c2.pebbles)
    assert(c1.select(SigAlgo.AUDp, 0.8, 3) == c2.select(SigAlgo.AUDp, 0.8, 3))
  }
}
