package perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}
import java.security.MessageDigest
import java.util.concurrent.{Callable, Executors}
import java.util.concurrent.atomic.AtomicInteger
import scala.jdk.CollectionConverters._
import repro.core._
import repro.join.LocalJoin

/** Result pairs (i, j), i < j, packed into one Long each. */
object Pairs {
  def code(i: Int, j: Int): Long = (i.toLong << 32) | (j.toLong & 0xffffffffL)
  def left(c: Long): Int = (c >>> 32).toInt
  def right(c: Long): Int = c.toInt

  /** `sorted` without repeats. */
  def dedupeSorted(sorted: Array[Long]): Array[Long] =
    if (sorted.isEmpty) sorted
    else {
      val out = Array.newBuilder[Long]
      out += sorted(0)
      var i = 1
      while (i < sorted.length) {
        if (sorted(i) != sorted(i - 1)) out += sorted(i)
        i += 1
      }
      out.result()
    }

  private def mix(x: Long): Long = {
    var z = x + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Pair count plus an order-free hash: the result fingerprint. */
  def fingerprint(codes: Array[Long]): String =
    f"${codes.length}%d:${codes.iterator.map(mix).sum}%016x"
}

/** The reference answer of a self-join: every pair with
  * `Usim.approx ≥ θ`, found by verifying all n(n−1)/2 pairs.
  *
  * References are cached as text files keyed by the workload's label;
  * each file records a digest of the strings and the join settings, and
  * is ignored if either differs. The benchmark commits the references
  * of the default seed, so two checkouts are checked against the same
  * pairs; others are computed on first use.
  */
object Reference {

  def digest(strings: Seq[String], cfg: LocalJoin.Config): String = {
    val md = MessageDigest.getInstance("SHA-256")
    md.update(configLine(cfg).getBytes(UTF_8))
    strings.foreach { s => md.update(s.getBytes(UTF_8)); md.update(0: Byte) }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  private def configLine(cfg: LocalJoin.Config): String =
    s"theta=${cfg.theta} measures=${cfg.measures.label} q=${cfg.q} t=${cfg.tParam}"

  /** Brute force over all pairs on `threads` threads, rows handed out
    * one at a time so long and short rows balance.
    */
  def bruteForce(k: Knowledge, strings: IndexedSeq[String], cfg: LocalJoin.Config, threads: Int): Array[Long] = {
    val n = strings.length
    val nextRow = new AtomicInteger(0)
    val pool = Executors.newFixedThreadPool(threads)
    try {
      val tasks = (0 until threads).map { _ =>
        new Callable[Array[Long]] {
          def call(): Array[Long] = {
            val found = Array.newBuilder[Long]
            var i = nextRow.getAndIncrement()
            while (i < n) {
              var j = i + 1
              while (j < n) {
                val sim = Usim.approx(k, strings(i), strings(j), cfg.measures, cfg.q, cfg.tParam)
                if (sim >= cfg.theta - 1e-12) found += Pairs.code(i, j)
                j += 1
              }
              i = nextRow.getAndIncrement()
            }
            found.result()
          }
        }
      }
      val all = pool.invokeAll(tasks.asJava).asScala.flatMap(_.get()).toArray
      java.util.Arrays.sort(all)
      all
    } finally pool.shutdown()
  }

  private def read(file: Path, digestHex: String): Option[Array[Long]] =
    if (!Files.isRegularFile(file)) None
    else {
      val lines = Files.readAllLines(file, UTF_8).asScala
      if (!lines.headOption.contains(s"# digest $digestHex")) None
      else Some(lines.iterator.drop(1).map { l =>
        val Array(i, j) = l.trim.split(' ')
        Pairs.code(i.toInt, j.toInt)
      }.toArray).map { a => java.util.Arrays.sort(a); a }
    }

  private def write(file: Path, digestHex: String, pairs: Array[Long]): Unit = {
    Files.createDirectories(file.getParent)
    val body = pairs.iterator.map(c => s"${Pairs.left(c)} ${Pairs.right(c)}")
    val tmp = file.resolveSibling(file.getFileName.toString + ".tmp")
    Files.write(tmp, (Iterator(s"# digest $digestHex") ++ body).toSeq.asJava, UTF_8)
    Files.move(tmp, file, java.nio.file.StandardCopyOption.REPLACE_EXISTING)
  }

  /** The reference of `strings` named `label`: from the committed
    * directory, else from the cache, else computed and cached.
    */
  def load(
      label: String,
      k: Knowledge,
      strings: IndexedSeq[String],
      cfg: LocalJoin.Config,
      threads: Int,
  ): Array[Long] = {
    val d = digest(strings, cfg)
    val file = s"$label.txt"
    read(Dirs.refs.resolve(file), d)
      .orElse(read(Dirs.cache.resolve(file), d))
      .getOrElse {
        val (pairs, nanos) = Meters.time(bruteForce(k, strings, cfg, threads))
        println(f"reference $label: ${pairs.length} pairs by brute force in ${nanos / 1e9}%.1f s on $threads threads")
        write(Dirs.cache.resolve(file), d, pairs)
        pairs
      }
  }
}
