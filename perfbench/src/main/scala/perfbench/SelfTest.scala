package perfbench

import repro.data.TextGen
import repro.join.LocalJoin

/** Checks the benchmark's own checks at tiny n after a run: a result
  * missing one reference pair lowers recall, a result with one pair
  * outside the reference fails, and a filter output with a candidate
  * added or removed fails. Throws on the first check that misbehaves.
  */
object SelfTest {
  val N = 120

  private def expect(cond: Boolean, what: String): Unit =
    if (!cond) throw new IllegalStateException(s"self-test failed: $what")

  def run(s: Settings): Unit = {
    val ctx = TextGen.context(TextGen.MedLite)
    val k = ctx.knowledge
    val strings = TextGen.joinDataset(ctx, N, s.seed).strings
    val reference = Reference.bruteForce(k, strings, Join.Cfg, s.threads)
    expect(reference.nonEmpty, s"no reference pairs among $N strings")

    val refPairs = reference.toSeq.map(c => (Pairs.left(c), Pairs.right(c)))
    val exact = Checks.results(refPairs.iterator, reference)
    expect(exact.ok && exact.recall == 1.0, s"the reference itself checks as $exact")
    val dropped = Checks.results(refPairs.tail.iterator, reference)
    expect(dropped.ok && dropped.recall < exact.recall, s"dropping a pair gave $dropped")
    val outside = (0 until N).iterator.flatMap(i => (i + 1 until N).iterator.map(j => (i, j)))
      .find(p => !reference.contains(Pairs.code(p._1, p._2))).get
    val added = Checks.results((refPairs :+ outside).iterator, reference)
    expect(!added.ok && added.spurious == 1, s"adding a non-reference pair gave $added")

    val (joined, _) = LocalJoin.join(k, strings, strings, Join.Cfg, selfJoin = true)
    val joinOutcome = Checks.results(joined.iterator.map(r => (r._1, r._2)), reference)
    expect(joinOutcome.ok, s"LocalJoin.join at n = $N: $joinOutcome")

    val order = LocalJoin.buildOrder(k, strings, Join.Cfg.measures, Join.Cfg.q)
    val sigs = LocalJoin.signatures(k, strings, order, Join.Cfg)
    val (expected, processed) = Overlap.bruteForce(sigs, Join.Tau)
    val (kernelProcessed, kernelCands) = LocalJoin.filterStage(sigs, sigs, Join.Tau, selfJoin = true)
    val kernel = Checks.codes(kernelCands.iterator)._1
    expect(kernelProcessed == processed && (kernel sameElements expected),
      s"filter stage at n = $N: ${kernel.length} candidates and T = $kernelProcessed, " +
        s"expected ${expected.length} and T = $processed")
    expect(expected.nonEmpty, s"no candidates among $N strings")
    val plan = new MedPlan(s)
    def planCheck(cands: Vector[(Int, Int)]): Outcome = plan.check(MedPlanOut(processed, cands, sigs))
    val cands = kernelCands
    expect(planCheck(cands).ok, "the expected candidates fail the filter check")
    expect(!planCheck(cands.tail).ok, "dropping a candidate passes the filter check")
    val extra = (0 until N).iterator.flatMap(i => (i + 1 until N).iterator.map(j => (i, j)))
      .find(p => !expected.contains(Pairs.code(p._1, p._2))).get
    expect(!planCheck(cands :+ extra).ok, "adding a candidate passes the filter check")
    println(s"self-test passed: ${reference.length} reference pairs and ${expected.length} candidates at n = $N")
  }
}
