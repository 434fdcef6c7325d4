package org.apache.spark

/** Reaches Spark's listener bus, which is package-private, so the
  * benchmark reads its listener only after every event was delivered.
  */
object PerfbenchAccess {
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
