package perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** In-memory spans of one traced run. A span has a name, a parent,
  * a start and an end; per-pair calls too numerous for spans are
  * charged to the open span as aggregated child time under their name.
  */
final class Tracer {
  private final class Span(val name: String, val parent: Int, val start: Long, val group: Boolean) {
    var end = 0L
    var childNanos = 0L
  }
  private val spans = mutable.ArrayBuffer[Span]()
  private val charged = mutable.LinkedHashMap[String, Long]()
  private var current = -1

  /** A span around one call into a layer. */
  def span[A](name: String)(f: => A): A = open(name, group = false)(f)

  /** A span that only groups layer spans; its self time is uncovered time. */
  def group[A](name: String)(f: => A): A = open(name, group = true)(f)

  private def open[A](name: String, group: Boolean)(f: => A): A = {
    val id = spans.length
    spans += new Span(name, current, System.nanoTime(), group)
    val parent = current
    current = id
    try f
    finally {
      val sp = spans(id)
      sp.end = System.nanoTime()
      current = parent
      if (parent >= 0) spans(parent).childNanos += sp.end - sp.start
    }
  }

  /** Adds `nanos` of a call named `name` as child time of the open span. */
  def charge(name: String, nanos: Long): Unit = {
    charged(name) = charged.getOrElse(name, 0L) + nanos
    if (current >= 0) spans(current).childNanos += nanos
  }

  /** Total seconds in spans and charged calls named `name`. */
  def seconds(name: String): Double =
    (spans.iterator.filter(_.name == name).map(s => s.end - s.start).sum +
      charged.getOrElse(name, 0L)) / 1e9

  /** Seconds of spans named `name` not covered by their children. */
  def selfSeconds(name: String): Double =
    spans.iterator.filter(_.name == name).map(s => s.end - s.start - s.childNanos).sum / 1e9

  /** Self seconds of the group spans: traced time no layer covers. */
  def uncoveredSeconds: Double =
    spans.iterator.filter(_.group).map(s => s.end - s.start - s.childNanos).sum / 1e9

  /** Writes the spans as JSON lines, times in microseconds from the first span. */
  def write(file: Path): Unit = if (spans.nonEmpty) {
    val t0 = spans.head.start
    val lines = spans.indices.map { i =>
      val s = spans(i)
      s"""{"id":$i,"parent":${s.parent},"name":"${s.name}","group":${s.group},"start_us":${(s.start - t0) / 1000},"end_us":${(s.end - t0) / 1000}}"""
    } ++ charged.map { case (name, ns) => s"""{"charged":"$name","total_us":${ns / 1000}}""" }
    Files.createDirectories(file.getParent)
    Files.write(file, lines.asJava, UTF_8)
  }
}

/** Per-task record of one Spark task, attributed to a benchmark phase. */
final case class TaskRecord(
    phase: String,
    stageId: Int,
    durationMs: Long,
    runMs: Long,
    cpuNs: Long,
    gcMs: Long,
    shuffleWriteBytes: Long,
    shuffleReadBytes: Long,
)

/** Records every finished task with the phase its job was submitted
  * under (the `perfbench.phase` local property of the submitting thread).
  */
final class StageListener extends SparkListener {
  private val stagePhase = new java.util.concurrent.ConcurrentHashMap[Int, String]()
  private val tasks = new java.util.concurrent.ConcurrentLinkedQueue[TaskRecord]()

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val phase = Option(e.properties).flatMap(p => Option(p.getProperty(StageListener.PhaseKey))).getOrElse("other")
    e.stageIds.foreach(id => stagePhase.put(id, phase))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    if (m != null) tasks.add(TaskRecord(
      stagePhase.getOrDefault(e.stageId, "other"), e.stageId, e.taskInfo.duration,
      m.executorRunTime, m.executorCpuTime, m.jvmGCTime,
      m.shuffleWriteMetrics.bytesWritten, m.shuffleReadMetrics.totalBytesRead))
  }

  def records(sc: SparkContext): Seq[TaskRecord] = {
    org.apache.spark.PerfbenchAccess.drainListenerBus(sc)
    tasks.asScala.toSeq
  }
}

object StageListener {
  val PhaseKey = "perfbench.phase"

  def inPhase[A](sc: SparkContext, phase: String)(f: => A): A = {
    sc.setLocalProperty(PhaseKey, phase)
    try f finally sc.setLocalProperty(PhaseKey, null)
  }
}
