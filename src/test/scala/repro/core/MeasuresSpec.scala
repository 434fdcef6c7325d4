package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropHelpers

class MeasuresSpec extends AnyFunSuite with PropHelpers {
  val k: Knowledge = Knowledge.figure1

  // ---- Jaccard (Eq 1)

  test("Example 2(i): Jaccard(Helsingki, Helsinki) = 6/9") {
    assert(math.abs(Measures.jaccard("helsingki", "helsinki") - 6.0 / 9.0) < 1e-12)
  }

  test("Jaccard of identical strings is 1") {
    assert(Measures.jaccard("coffee", "coffee") == 1.0)
  }

  test("Jaccard of disjoint strings is 0") {
    assert(Measures.jaccard("aa", "bb") == 0.0)
  }

  test("Jaccard of empty strings is 0 by convention") {
    assert(Measures.jaccard("", "") == 0.0)
  }

  test("property: Jaccard is symmetric and in [0,1]") {
    check2(Gen.alphaLowerStr, Gen.alphaLowerStr) { (a, b) =>
      val x = Measures.jaccard(a, b)
      assert(x >= 0.0 && x <= 1.0)
      assert(math.abs(x - Measures.jaccard(b, a)) < 1e-12)
    }
  }

  test("property: the gram-array merge equals |G(a) ∩ G(b)| / |G(a) ∪ G(b)|") {
    val str = Gen.choose(0, 8).flatMap(n => Gen.listOfN(n, Gen.oneOf('a', 'b', 'c', ' ')).map(_.mkString))
    check2(Gen.zip(str, str), Gen.choose(1, 4), n = 500) { case ((a, b), q) =>
      val ga = Tokenizer.qgrams(a, q)
      val gb = Tokenizer.qgrams(b, q)
      val inter = ga.intersect(gb).size
      val want = if (inter == 0) 0.0 else inter.toDouble / ga.union(gb).size
      assert(Measures.jaccard(a, b, q) == want, s"'$a' '$b' q=$q")
    }
  }

  // ---- Synonym (Eq 2)

  test("Example 2(ii): synonym(coffee shop, cafe) = 1 via rule") {
    assert(Measures.synonym(k, Vector("coffee", "shop"), Vector("cafe")) == 1.0)
  }

  test("synonym works in both directions") {
    assert(Measures.synonym(k, Vector("cafe"), Vector("coffee", "shop")) == 1.0)
  }

  test("synonym of unrelated spans is 0") {
    assert(Measures.synonym(k, Vector("coffee"), Vector("cafe")) == 0.0)
  }

  test("synonym picks max closeness among duplicate rules") {
    val k2 = new Knowledge(Vector(
      Rule(Vector("a"), Vector("b"), 0.5),
      Rule(Vector("a"), Vector("b"), 0.9)), k.taxonomy)
    assert(Measures.synonym(k2, Vector("a"), Vector("b")) == 0.9)
  }

  // ---- Taxonomy (Eq 3)

  test("Example 2(iii): taxonomy(latte, espresso) = 4/5") {
    assert(math.abs(Measures.taxonomy(k, Vector("latte"), Vector("espresso")) - 0.8) < 1e-12)
  }

  test("taxonomy(cake, apple cake) = 3/4 (paper Section 2.2)") {
    assert(math.abs(Measures.taxonomy(k, Vector("cake"), Vector("apple", "cake")) - 0.75) < 1e-12)
  }

  test("taxonomy of a node with itself is 1") {
    assert(Measures.taxonomy(k, Vector("latte"), Vector("latte")) == 1.0)
  }

  test("taxonomy of non-entities is 0") {
    assert(Measures.taxonomy(k, Vector("shop"), Vector("latte")) == 0.0)
  }

  // ---- msim (Eq 4)

  test("msim(cake, apple cake) = max(0.33 Jaccard, 0.75 taxonomy) = 0.75") {
    val m = Measures.msim(k, Vector("cake"), Vector("apple", "cake"))
    assert(math.abs(m - 0.75) < 1e-12)
  }

  test("msim restricted to J ignores the taxonomy") {
    val m = Measures.msim(k, Vector("cake"), Vector("apple", "cake"), MeasureSet.J)
    assert(m < 0.5) // gram jaccard of "cake" vs "apple cake"
  }

  test("msim restricted to S only sees rules") {
    assert(Measures.msim(k, Vector("coffee", "shop"), Vector("cafe"), MeasureSet.S) == 1.0)
    assert(Measures.msim(k, Vector("latte"), Vector("espresso"), MeasureSet.S) == 0.0)
  }

  test("property: msim upper-bounds each enabled measure") {
    val spans = Gen.oneOf(
      Vector("coffee"), Vector("coffee", "shop"), Vector("cafe"),
      Vector("latte"), Vector("espresso"), Vector("cake"), Vector("gateau"))
    check2(spans, spans) { (a, b) =>
      val m = Measures.msim(k, a, b)
      assert(m + 1e-12 >= Measures.jaccard(Tokenizer.text(a), Tokenizer.text(b)))
      assert(m + 1e-12 >= Measures.synonym(k, a, b))
      assert(m + 1e-12 >= Measures.taxonomy(k, a, b))
    }
  }
}
