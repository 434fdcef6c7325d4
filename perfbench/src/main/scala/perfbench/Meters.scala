package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.atomic.AtomicLong
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import scala.jdk.CollectionConverters._
import com.sun.management.{GarbageCollectionNotificationInfo, OperatingSystemMXBean}

/** Wall time, process CPU time and peak post-GC heap of one operation. */
final case class Sample(wallNanos: Long, cpuNanos: Long, heapPeakBytes: Long)

/** Process-wide meters: CPU time from the OS bean, and the heap in use
  * after each garbage collection from GC notifications.
  */
object Meters {
  private val os =
    ManagementFactory.getOperatingSystemMXBean.asInstanceOf[OperatingSystemMXBean]
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet

  private val notified = new AtomicLong
  private val peak = new AtomicLong

  private val listener = new NotificationListener {
    def handleNotification(n: Notification, handback: AnyRef): Unit =
      if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
        val used = info.getGcInfo.getMemoryUsageAfterGc.asScala.iterator
          .collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
        peak.accumulateAndGet(used, math.max)
        notified.incrementAndGet()
      }
  }

  private def collections(): Long = gcBeans.iterator.map(_.getCollectionCount).filter(_ > 0).sum

  gcBeans.foreach(_.asInstanceOf[NotificationEmitter].addNotificationListener(listener, null, null))
  private val collectionsBefore = collections()

  def cpuNanos(): Long = os.getProcessCpuTime

  /** Full GC, then wait (at most 5 s) until its notification has arrived. */
  private def settledGc(): Unit = {
    System.gc()
    val want = collections() - collectionsBefore
    val deadline = System.nanoTime() + 5000000000L
    while (notified.get() < want && System.nanoTime() < deadline) Thread.sleep(2)
  }

  private val jit = ManagementFactory.getCompilationMXBean

  /** Waits (at most 2 s) until the JIT compiler has been idle for 100 ms,
    * so that compiling code queued before an operation, by the output
    * check say, is not counted in it.
    */
  private def quietJit(): Unit = if (jit.isCompilationTimeMonitoringSupported) {
    val deadline = System.nanoTime() + 2000000000L
    var last = jit.getTotalCompilationTime
    var idle = 0
    while (idle < 5 && System.nanoTime() < deadline) {
      Thread.sleep(20)
      val now = jit.getTotalCompilationTime
      if (now == last) idle += 1 else { idle = 0; last = now }
    }
  }

  /** Runs `op` once, after a full GC and once the JIT compiler is idle.
    * The heap peak is the largest post-GC heap seen while it ran,
    * including a full GC taken just after it with its result live.
    */
  def measure[A](op: => A): (A, Sample) = {
    settledGc()
    quietJit()
    peak.set(0L)
    val c0 = cpuNanos()
    val t0 = System.nanoTime()
    val result = op
    val t1 = System.nanoTime()
    val c1 = cpuNanos()
    settledGc()
    (result, Sample(t1 - t0, c1 - c0, peak.get()))
  }

  def time[A](op: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val result = op
    (result, System.nanoTime() - t0)
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no values")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  /** Nearest-rank percentile, `p` in (0, 100]; 0 for no values. */
  def percentile(xs: Array[Long], p: Double): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      s(math.max(0, math.ceil(p / 100 * s.length).toInt - 1)).toDouble
    }

  def mean(xs: Iterable[Double]): Double =
    if (xs.isEmpty) 0.0 else xs.sum / xs.size
}
