package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropHelpers

class TokenizerSpec extends AnyFunSuite with PropHelpers {

  test("tokens splits on whitespace and lower-cases") {
    assert(Tokenizer.tokens("Coffee  Shop   Latte") == Vector("coffee", "shop", "latte"))
  }

  test("tokens trims leading/trailing space") {
    assert(Tokenizer.tokens("  a b  ") == Vector("a", "b"))
  }

  test("tokens of empty string is empty") {
    assert(Tokenizer.tokens("") == Vector.empty)
    assert(Tokenizer.tokens("   ") == Vector.empty)
  }

  test("tokens of null is empty") {
    assert(Tokenizer.tokens(null) == Vector.empty)
  }

  test("lower-casing does not depend on the default locale") {
    val saved = java.util.Locale.getDefault
    java.util.Locale.setDefault(java.util.Locale.forLanguageTag("tr-TR"))
    try {
      assert(Tokenizer.tokens("TITLE") == Vector("title"))
      assert(repro.baselines.AdaptJoin.sim("TITLE", "title") == 1.0)
    } finally java.util.Locale.setDefault(saved)
  }

  test("tokens handles tabs and newlines") {
    assert(Tokenizer.tokens("a\tb\nc") == Vector("a", "b", "c"))
  }

  test("text joins with single spaces") {
    assert(Tokenizer.text(Seq("a", "b")) == "a b")
  }

  test("qgrams of paper Example 2: Helsingki") {
    assert(Tokenizer.qgrams("helsingki", 2) ==
      Set("he", "el", "ls", "si", "in", "ng", "gk", "ki"))
  }

  test("qgrams of paper Example 2: Helsinki") {
    assert(Tokenizer.qgrams("helsinki", 2) ==
      Set("he", "el", "ls", "si", "in", "nk", "ki"))
  }

  test("qgrams of a string shorter than q is the string itself") {
    assert(Tokenizer.qgrams("a", 2) == Set("a"))
  }

  test("qgrams of exactly length q") {
    assert(Tokenizer.qgrams("ab", 2) == Set("ab"))
  }

  test("qgrams of empty string is empty") {
    assert(Tokenizer.qgrams("", 2) == Set.empty[String])
  }

  test("qgrams rejects q < 1") {
    intercept[IllegalArgumentException](Tokenizer.qgrams("abc", 0))
  }

  test("qgramList keeps first-occurrence order, distinct") {
    assert(Tokenizer.qgramList("aaaa", 2) == Vector("aa"))
    assert(Tokenizer.qgramList("abab", 2) == Vector("ab", "ba"))
  }

  test("property: every q-gram has length <= q") {
    check2(Gen.alphaLowerStr, Gen.choose(1, 4)) { (s, q) =>
      assert(Tokenizer.qgrams(s, q).forall(_.length <= q))
    }
  }

  test("property: number of q-grams bounded by |s|") {
    check2(Gen.alphaLowerStr, Gen.choose(1, 4)) { (s, q) =>
      assert(Tokenizer.qgrams(s, q).size <= math.max(1, s.length))
    }
  }

  test("property: tokens never contain whitespace") {
    check(Gen.asciiPrintableStr) { s =>
      assert(Tokenizer.tokens(s).forall(t => !t.exists(_.isWhitespace) && t.nonEmpty))
    }
  }
}
