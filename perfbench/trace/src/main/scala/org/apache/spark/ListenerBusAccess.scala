package org.apache.spark

/** Waits until Spark's listener bus has delivered every queued event, so a
  * listener's records are complete when read. The bus is internal to Spark,
  * hence this accessor in Spark's package.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
