package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.TextGen

import scala.util.Random

/** Fixtures around the paper's Figure 2 (Example 4/5) instance. */
object Figure2 {
  val rules: Vector[Rule] = Vector(
    Rule(Vector("b", "c", "d"), Vector("f"), 0.3),      // R1
    Rule(Vector("b", "c"), Vector("f", "g"), 0.13),     // R2
    Rule(Vector("c", "d"), Vector("f", "g"), 0.22),     // R3
    Rule(Vector("a"), Vector("g"), 0.09),               // R4
    Rule(Vector("d"), Vector("h"), 0.27),               // R5
    Rule(Vector("z", "e", "f"), Vector("g"), 0.5),      // R6 — not applicable
  )
  val k = new Knowledge(rules, Knowledge.empty.taxonomy)
  val s = "a b c d e"
  val t = "f g h"
  def graph: UsimGraph = Usim.graph(k, s, t, MeasureSet.S)
}

class UsimGraphSpec extends AnyFunSuite {

  /** The conflict graph straight from the definitions: candidate pairs of
    * `Segments.wellDefined(s) × wellDefined(t)` in the documented order
    * (single × single tokens, then per segment of s and per rule in
    * `rulesTouching` order the segments of t equal to its other side,
    * then entity × entity), first occurrence kept, each weighed with
    * `Measures.msim` and kept if its weight is positive.
    */
  private def oracle(k: Knowledge, s: String, t: String, m: MeasureSet, q: Int):
      Vector[(Segment, Segment, Double)] = {
    val ss = Segments.wellDefined(k, Tokenizer.tokens(s))
    val ts = Segments.wellDefined(k, Tokenizer.tokens(t))
    val singles = for (a <- ss if a.length == 1; b <- ts if b.length == 1) yield (a, b)
    val rules = for {
      a <- ss
      r <- k.rulesTouching(a.tokens).map(k.rule)
      b <- (if (r.lhs == a.tokens) ts.filter(_.tokens == r.rhs) else Nil) ++
        (if (r.rhs == a.tokens) ts.filter(_.tokens == r.lhs) else Nil)
    } yield (a, b)
    def entities(segs: Vector[Segment]) = segs.filter(x => k.taxonomy.node(x.tokens).isDefined)
    val taxonomy = for (a <- entities(ss); b <- entities(ts)) yield (a, b)
    val cands = (if (m.j) singles else Vector.empty) ++ (if (m.s) rules else Vector.empty) ++
      (if (m.t) taxonomy else Vector.empty)
    cands.distinct
      .map { case (a, b) => (a, b, Measures.msim(k, a.tokens, b.tokens, m, q)) }
      .filter(_._3 > 0.0)
  }

  private def mask(seg: Segment): Long = (seg.start until seg.end).map(1L << _).sum

  private def assertOracle(k: Knowledge, s: String, ps: Prepared, t: String, pt: Prepared, m: MeasureSet, q: Int): Unit = {
    val g = UsimGraph.build(k, ps, pt, m)
    val want = oracle(k, s, t, m, q)
    val clue = s"'$s' vs '$t' ${m.label} q=$q"
    assert(g.sLen == Tokenizer.tokens(s).length && g.tLen == Tokenizer.tokens(t).length, clue)
    assert(g.sSegs.toVector == want.map(_._1), clue)
    assert(g.tSegs.toVector == want.map(_._2), clue)
    assert(g.weights.toVector == want.map(_._3), clue)
    assert(g.maskS.toVector == want.map(v => mask(v._1)), clue)
    assert(g.maskT.toVector == want.map(v => mask(v._2)), clue)
  }

  /** A four-token alphabet with a rule whose sides are equal, a duplicate
    * rule, a pair of opposite rules, segments that are the lhs of one rule
    * and the rhs of another, and rule sides that are also entities, so
    * that S and T list the same pair again and again.
    */
  private val tiny: Knowledge = new Knowledge(
    Vector(
      Rule(Vector("a", "b"), Vector("c"), 0.6),
      Rule(Vector("a", "b"), Vector("c"), 0.8),
      Rule(Vector("c"), Vector("d"), 0.7),
      Rule(Vector("a"), Vector("a"), 0.9),
      Rule(Vector("d"), Vector("b", "c", "d"), 0.5),
      Rule(Vector("c"), Vector("a", "b"), 0.4)),
    Taxonomy.fromEdges("root", Seq("c" -> "root", "a b" -> "c", "d" -> "root", "b c" -> "d")))

  /** Fuzzed pairs: planted pairs of every class and random cross pairs for
    * MED-lite and WIKI-lite, and random strings over the tiny alphabet.
    */
  private lazy val fuzzed: Seq[(Knowledge, Seq[(String, String)])] = {
    val rng = new Random(404)
    val generated = Seq(TextGen.MedLite, TextGen.WikiLite).map { kind =>
      val ctx = TextGen.context(kind)
      val planted = Vector.fill(40) {
        val (s, t, _) = TextGen.plantPair(ctx, Seq("S", "J", "T", "JS", "TS", "TJ", "TJS")(rng.nextInt(7)), rng)
        (s, t)
      }
      val crossed = planted.map(_._1).zip(planted.map(_._2).reverse)
      (ctx.knowledge, planted ++ crossed)
    }
    def tinyString(): String = Vector.fill(rng.nextInt(7))(Seq("a", "b", "c", "d", "ab")(rng.nextInt(5))).mkString(" ")
    generated :+ ((tiny, Vector.fill(60)((tinyString(), tinyString())) :+ (("", "a b c"))))
  }

  test("property: the prepared build equals the naive oracle (all measure sets, q = 1..3)") {
    for ((k, pairs) <- fuzzed; (s, t) <- pairs; q <- 1 to 3) {
      val ps = Prepared(k, s, q)
      val pt = Prepared(k, t, q)
      for (m <- MeasureSet.all) assertOracle(k, s, ps, t, pt, m, q)
    }
  }

  test("property: one prepared string reused across many partners, on either side") {
    for ((k, pairs) <- fuzzed; q <- 1 to 3) {
      val (s, _) = pairs.head
      val ps = Prepared(k, s, q)
      for ((_, t) <- pairs; m <- MeasureSet.all) {
        val pt = Prepared(k, t, q)
        assertOracle(k, s, ps, t, pt, m, q)
        assertOracle(k, t, pt, s, ps, m, q)
      }
    }
  }

  test("Figure 2: exactly 5 vertices (R6 does not appear)") {
    val g = Figure2.graph
    assert(g.size == 5)
    assert(g.weights.sorted.toVector == Vector(0.09, 0.13, 0.22, 0.27, 0.3))
  }

  test("Figure 2: R3 and R5 conflict (share token d)") {
    val g = Figure2.graph
    val r3 = g.weights.indexOf(0.22)
    val r5 = g.weights.indexOf(0.27)
    assert(g.conflict(r3, r5))
  }

  test("Figure 2: R1 and R4 are independent") {
    val g = Figure2.graph
    val r1 = g.weights.indexOf(0.3)
    val r4 = g.weights.indexOf(0.09)
    assert(!g.conflict(r1, r4))
  }

  test("Figure 2: getSim({R2, R5}) = 0.4/4 = 0.1 (Example 5)") {
    val g = Figure2.graph
    val r2 = g.weights.indexOf(0.13)
    val r5 = g.weights.indexOf(0.27)
    assert(math.abs(g.getSim(Seq(r2, r5)) - 0.1) < 1e-12)
  }

  test("Figure 2: getSim({R1, R4}) = 0.39/3 = 0.13 (Example 5)") {
    val g = Figure2.graph
    val r1 = g.weights.indexOf(0.3)
    val r4 = g.weights.indexOf(0.09)
    assert(math.abs(g.getSim(Seq(r1, r4)) - 0.13) < 1e-12)
  }

  test("getSim of the empty set is 0") {
    assert(Figure2.graph.getSim(Nil) == 0.0)
  }

  test("isIndependent detects conflicts") {
    val g = Figure2.graph
    val r3 = g.weights.indexOf(0.22)
    val r5 = g.weights.indexOf(0.27)
    val r4 = g.weights.indexOf(0.09)
    assert(g.isIndependent(Seq(r4, r5)))
    assert(!g.isIndependent(Seq(r3, r5)))
  }

  test("jaccard vertices appear only for single-token pairs with gram overlap") {
    val k = Knowledge.empty
    val g = Usim.graph(k, "abc xyz", "abd pqr", MeasureSet.J)
    // only (abc, abd) share a gram ("ab")
    assert(g.size == 1)
    assert(g.sSegs(0).tokens == Vector("abc") && g.tSegs(0).tokens == Vector("abd"))
  }

  test("measure restriction drops synonym vertices") {
    val g = Usim.graph(Figure2.k, Figure2.s, Figure2.t, MeasureSet.J)
    assert(g.size == 0) // single letters share no 2-grams
  }

  test("vertex weight is the max over applicable measures") {
    // "cake" vs "gateau": synonym rule C=1 beats gram jaccard
    val k = Knowledge.figure1
    val g = Usim.graph(k, "cake", "gateau", MeasureSet.TJS)
    assert(g.size == 1 && g.weights(0) == 1.0)
  }

  test("strings over 64 tokens are rejected") {
    val long = Vector.fill(65)("tok").mkString(" ")
    intercept[IllegalArgumentException](Usim.graph(Knowledge.empty, long, "tok", MeasureSet.J))
  }
}
