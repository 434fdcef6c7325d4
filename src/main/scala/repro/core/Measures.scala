package repro.core

/** The three base similarity measures of §2.1 and their per-pair
  * maximum msim (Eq 4), evaluated on token spans (segments).
  */
object Measures {

  /** Default gram length used throughout the paper's examples. */
  val DefaultQ = 2

  /** Gram-based Jaccard coefficient (Eq 1) on the texts of two spans. */
  def jaccard(a: String, b: String, q: Int = DefaultQ): Double =
    jaccard(Tokenizer.gramArray(a, q), Tokenizer.gramArray(b, q))

  /** Jaccard of two sorted distinct gram arrays by one merge: |a ∩ b| /
    * |a ∪ b|, and 0 when either is empty or nothing is shared. The one
    * Jaccard kernel of verification and of AdaptJoin.
    */
  def jaccard(a: Array[String], b: Array[String]): Double = {
    var i = 0
    var j = 0
    var inter = 0
    while (i < a.length && j < b.length) {
      val c = a(i).compareTo(b(j))
      if (c == 0) { inter += 1; i += 1; j += 1 }
      else if (c < 0) i += 1
      else j += 1
    }
    if (inter == 0) 0.0 else inter.toDouble / (a.length + b.length - inter)
  }

  /** Synonym similarity (Eq 2): C(R) if a rule maps one span to the
    * other (in either direction — a rule makes its sides equivalent),
    * else 0. When several rules apply, the closest wins.
    */
  def synonym(k: Knowledge, a: Vector[String], b: Vector[String]): Double = {
    def dir(l: Vector[String], r: Vector[String]): Double =
      k.byLhs.getOrElse(l, Nil).iterator
        .map(k.rule)
        .filter(_.rhs == r)
        .map(_.c)
        .maxOption
        .getOrElse(0.0)
    math.max(dir(a, b), dir(b, a))
  }

  /** Taxonomy similarity (Eq 3) if both spans name taxonomy entities, else 0. */
  def taxonomy(k: Knowledge, a: Vector[String], b: Vector[String]): Double =
    (k.taxonomy.node(a), k.taxonomy.node(b)) match {
      case (Some(na), Some(nb)) => k.taxonomy.sim(na, nb)
      case _                    => 0.0
    }

  /** msim (Eq 4): the best applicable measure on a span pair, restricted
    * to the enabled `measures`. Jaccard applies to any pair of spans;
    * synonym/taxonomy only where the knowledge base matches.
    */
  def msim(
      k: Knowledge,
      a: Vector[String],
      b: Vector[String],
      measures: MeasureSet = MeasureSet.TJS,
      q: Int = DefaultQ,
  ): Double = {
    var best = 0.0
    if (measures.j) best = math.max(best, jaccard(Tokenizer.text(a), Tokenizer.text(b), q))
    if (measures.s) best = math.max(best, synonym(k, a, b))
    if (measures.t) best = math.max(best, taxonomy(k, a, b))
    best
  }

  /** msim (Eq 4) of segment `si` of `s` and segment `ti` of `t`, from
    * what preparation looked up: the gram merge, a rule whose lhs is one
    * segment and whose rhs is the other (either direction, closest wins),
    * and `Taxonomy.sim` on the node ids. Equals [[msim]] on the segments'
    * tokens.
    */
  def msim(k: Knowledge, s: Prepared, si: Int, t: Prepared, ti: Int, measures: MeasureSet): Double = {
    var best = 0.0
    if (measures.j) best = jaccard(s.grams(si), t.grams(ti))
    if (measures.s)
      best = math.max(best,
        math.max(closeness(k, s.lhsRules(si), t.rhsRules(ti)), closeness(k, t.lhsRules(ti), s.rhsRules(si))))
    if (measures.t && s.node(si) >= 0 && t.node(ti) >= 0)
      best = math.max(best, k.taxonomy.sim(s.node(si), t.node(ti)))
    best
  }

  /** The largest C(R) over rules in both `lhsOf` and `rhsOf`, else 0. */
  private def closeness(k: Knowledge, lhsOf: Array[Int], rhsOf: Array[Int]): Double = {
    var best = 0.0
    for (rid <- lhsOf if rhsOf.contains(rid)) best = math.max(best, k.rule(rid).c)
    best
  }
}
