package repro.core

import java.util.Locale

/** Tokenisation and q-gram utilities (paper §2.1).
  *
  * Strings are tokenised on whitespace after lower-casing; q-grams are
  * the sliding q-letter substrings of a segment's text (tokens joined by
  * a single space). A segment shorter than q letters yields itself as
  * its only gram — the paper never pads.
  */
object Tokenizer {

  /** Whitespace tokens of `s` lower-cased in `Locale.ROOT` (so results do
    * not depend on the JVM's locale), empty tokens dropped; none for null.
    */
  def tokens(s: String): Vector[String] =
    if (s == null) Vector.empty
    else s.trim.toLowerCase(Locale.ROOT).split("\\s+").iterator.filter(_.nonEmpty).toVector

  /** Canonical text of a token span (single space join). */
  def text(toks: Seq[String]): String = toks.mkString(" ")

  /** The multiset-free set of q-grams G(s, q) of a string. */
  def qgrams(s: String, q: Int): Set[String] = {
    require(q >= 1, s"q must be >= 1, got $q")
    if (s.isEmpty) Set.empty
    else if (s.length <= q) Set(s)
    else s.sliding(q).toSet
  }

  /** G(s, q) as a sorted array — the operand of [[Measures.jaccard]]'s merge. */
  def gramArray(s: String, q: Int): Array[String] = qgrams(s, q).toArray.sorted

  /** q-grams as an ordered list (first occurrence order, distinct). */
  def qgramList(s: String, q: Int): Vector[String] = {
    if (s.isEmpty) Vector.empty
    else if (s.length <= q) Vector(s)
    else s.sliding(q).toVector.distinct
  }

  /** q-gram occurrences with multiplicity (|s|−q+1 entries) — what
    * pebble generation counts: Table 3 weighs "espresso" grams 1/7.
    */
  def qgramOccurrences(s: String, q: Int): Vector[String] = {
    if (s.isEmpty) Vector.empty
    else if (s.length <= q) Vector(s)
    else s.sliding(q).toVector
  }
}
