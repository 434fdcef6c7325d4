package repro.join

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.PropHelpers

/** `LocalJoin.filterStage` against pairwise key overlap computed by brute
  * force: T_τ is the sum of all pairwise overlaps (each shared key of a
  * pair is one processed posting pair) and the candidates are the pairs
  * sharing at least τ keys, in ascending order.
  */
class FilterStageSpec extends AnyFunSuite with PropHelpers {

  type Sigs = IndexedSeq[Set[String]]

  private def bruteForce(sigS: Sigs, sigT: Sigs, tau: Int, selfJoin: Boolean): (Long, Vector[(Int, Int)]) = {
    var processed = 0L
    val cands = Vector.newBuilder[(Int, Int)]
    for (i <- sigS.indices; j <- sigT.indices if !selfJoin || i < j) {
      val overlap = (sigS(i) intersect sigT(j)).size
      processed += overlap
      if (overlap >= tau) cands += ((i, j))
    }
    (processed, cands.result())
  }

  /** Collections over a one-key, a small or a larger alphabet, with empty
    * signatures, and with a repeated tail so duplicate strings occur.
    */
  private val collection: Gen[Sigs] = for {
    nKeys <- Gen.oneOf(1, 4, 12)
    keys = (0 until nKeys).map(k => s"k$k")
    n <- Gen.choose(0, 24)
    sigs <- Gen.listOfN(n, Gen.someOf(keys).map(_.toSet))
    dup <- Gen.choose(0, sigs.length)
  } yield (sigs ++ sigs.take(dup)).toVector

  test("self-join matches brute-force overlap, pairs have i < j") {
    check(collection, n = 200) { sigs =>
      for (tau <- 1 to 4) {
        val got = LocalJoin.filterStage(sigs, sigs, tau, selfJoin = true)
        assert(got == bruteForce(sigs, sigs, tau, selfJoin = true), s"tau=$tau sigs=$sigs")
        assert(got._2.forall { case (i, j) => i < j })
      }
    }
  }

  test("R-S join matches brute-force overlap") {
    check2(collection, collection, n = 200) { (sigS, sigT) =>
      for (tau <- 1 to 4)
        assert(LocalJoin.filterStage(sigS, sigT, tau, selfJoin = false) ==
          bruteForce(sigS, sigT, tau, selfJoin = false), s"tau=$tau sigS=$sigS sigT=$sigT")
    }
  }

  test("empty collections and empty signatures give no pairs") {
    val empty = Vector.empty[Set[String]]
    val blank = Vector.fill(3)(Set.empty[String])
    val one = Vector(Set("k"))
    for ((s, t) <- Seq(empty -> empty, empty -> one, one -> empty, blank -> blank, blank -> one)) {
      assert(LocalJoin.filterStage(s, t, 1, selfJoin = false) == ((0L, Vector.empty)))
      assert(LocalJoin.filterStage(s, s, 1, selfJoin = true) == ((0L, Vector.empty)))
    }
  }
}
