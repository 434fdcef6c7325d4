package repro.core

/** A string prepared once for verification: its tokens, its
  * well-defined segments (Defs 1–2) and, per segment, everything the
  * conflict-graph build of §2.3 looks up — the sorted distinct q-grams
  * of its text, the ids of the rules whose lhs (rhs) it equals, its
  * taxonomy node (−1 if none) and its 64-bit token mask. A join
  * prepares each string once and builds the graph of every candidate
  * pair from two prepared strings ([[UsimGraph.build]]), so no per-pair
  * work re-tokenises, re-enumerates segments or hashes token spans into
  * the knowledge maps.
  */
final class Prepared private (
    val q: Int,
    val tokens: Vector[String],
    val segs: Array[Segment],
    val grams: Array[Array[String]],
    val lhsRules: Array[Array[Int]],
    val rhsRules: Array[Array[Int]],
    val node: Array[Int],
    val masks: Array[Long],
) {
  def length: Int = tokens.length

  /** Segments of one token, ascending. */
  val singles: Array[Int] = segs.indices.filter(segs(_).length == 1).toArray

  /** Segments naming a taxonomy entity, ascending. */
  val entities: Array[Int] = segs.indices.filter(node(_) >= 0).toArray

  /** Segments equal to some rule side, ascending. */
  val ruleSegs: Array[Int] =
    segs.indices.filter(i => lhsRules(i).nonEmpty || rhsRules(i).nonEmpty).toArray
}

object Prepared {

  private val NoRules = Array.empty[Int]

  def apply(k: Knowledge, s: String, q: Int): Prepared = apply(k, Tokenizer.tokens(s), q)

  /** Strings of more than 64 tokens are rejected, as token masks are 64-bit. */
  def apply(k: Knowledge, toks: Vector[String], q: Int): Prepared = {
    require(toks.length <= 64, s"strings longer than 64 tokens unsupported (${toks.length})")
    val segs = Segments.wellDefined(k, toks).toArray
    def rules(index: Map[Vector[String], Seq[Int]], seg: Segment): Array[Int] =
      index.get(seg.tokens).fold(NoRules)(_.toArray)
    new Prepared(
      q,
      toks,
      segs,
      segs.map(seg => Tokenizer.gramArray(seg.text, q)),
      segs.map(rules(k.byLhs, _)),
      segs.map(rules(k.byRhs, _)),
      segs.map(seg => k.taxonomy.byName.getOrElse(seg.tokens, -1)),
      segs.map(seg => ((1L << seg.length) - 1L) << seg.start),
    )
  }

  /** `strings(i)` prepared on first request and kept, so a string that no
    * pair asks for is never prepared.
    */
  def lazily(k: Knowledge, strings: IndexedSeq[String], q: Int): Int => Prepared = {
    val memo = new Array[Prepared](strings.length)
    i => {
      if (memo(i) == null) memo(i) = Prepared(k, strings(i), q)
      memo(i)
    }
  }
}
