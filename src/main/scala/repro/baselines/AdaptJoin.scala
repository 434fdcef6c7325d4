package repro.baselines

import java.util.Locale

import repro.core.{Measures, Tokenizer, Usim}
import repro.join.LocalJoin

/** Reimplementation of AdaptJoin [53] (Wang et al., SIGMOD 2012):
  * gram-based similarity join with the adaptive ℓ-prefix scheme.
  *
  * For whole-string q-gram Jaccard ≥ θ, two gram sets must overlap by
  * ≥ ⌈θ·|G(S)|⌉ grams, so the ℓ-prefix of length
  * |G| − ⌈θ·|G|⌉ + ℓ (grams sorted rarest-first) guarantees ≥ ℓ common
  * prefix grams between similar strings. Larger ℓ → longer prefixes
  * but fewer candidates; AdaptJoin picks ℓ by a cost estimate. We pick
  * one global ℓ by estimating candidates on a sample (the original
  * picks per-string; the global variant keeps the same trade-off, see
  * DESIGN.md §4).
  */
object AdaptJoin {

  /** The baseline's similarity: gram Jaccard on the whole string. */
  def sim(s: String, t: String, q: Int = Measures.DefaultQ): Double =
    Measures.jaccard(s.trim.toLowerCase(Locale.ROOT), t.trim.toLowerCase(Locale.ROOT), q)

  private def grams(s: String, q: Int): Vector[String] =
    Tokenizer.qgramList(s.trim.toLowerCase(Locale.ROOT), q)

  /** Global rarest-first gram order of a collection. */
  def gramOrder(strings: Iterable[String], q: Int): Map[String, Int] = {
    val freq = scala.collection.mutable.HashMap[String, Int]()
    for (s <- strings; g <- grams(s, q).toSet[String])
      freq.update(g, freq.getOrElse(g, 0) + 1)
    freq.toSeq.sortBy { case (g, f) => (f, g) }.iterator.zipWithIndex
      .map { case ((g, _), r) => g -> r }.toMap
  }

  /** ℓ-prefix of a string: the first |G| − ⌈θ|G|⌉ + ℓ grams, rarest first. */
  def prefix(s: String, theta: Double, ell: Int, order: Map[String, Int], q: Int): Set[String] = {
    val gs = grams(s, q).sortBy(g => (order.getOrElse(g, Int.MaxValue), g))
    val len = math.max(0, gs.length - math.ceil(theta * gs.length).toInt + ell)
    gs.take(math.min(len, gs.length)).toSet
  }

  private def candidates(
      strings: IndexedSeq[String],
      theta: Double,
      ell: Int,
      order: Map[String, Int],
      q: Int,
  ): Vector[(Int, Int)] = {
    val prefixes = strings.map(prefix(_, theta, ell, order, q))
    LocalJoin.filterStage(prefixes, prefixes, ell, selfJoin = true)._2
  }

  /** Choose the global ℓ minimising estimated cost on a sample. */
  def chooseEll(
      strings: IndexedSeq[String],
      theta: Double,
      order: Map[String, Int],
      q: Int,
      maxEll: Int = 4,
      sampleSize: Int = 300,
  ): Int = {
    val sample = strings.take(sampleSize)
    (1 to maxEll).minBy { ell =>
      val prefLen = sample.iterator.map(s => prefix(s, theta, ell, order, q).size.toLong).sum
      val cand = candidates(sample, theta, ell, order, q).size.toLong
      // filtering cost ∝ index size, verification cost ∝ candidates
      prefLen + 50L * cand
    }
  }

  /** Self-join: pairs with whole-string gram Jaccard ≥ θ. */
  def join(
      strings: IndexedSeq[String],
      theta: Double,
      q: Int = Measures.DefaultQ,
  ): Vector[(Int, Int, Double)] = {
    val order = gramOrder(strings, q)
    val ell = chooseEll(strings, theta, order, q)
    candidates(strings, theta, ell, order, q).flatMap { case (i, j) =>
      val x = sim(strings(i), strings(j), q)
      if (x >= theta - Usim.AcceptSlack) Some((i, j, x)) else None
    }
  }
}
