package repro.perfbench.trace

import java.util.concurrent.ConcurrentLinkedQueue
import org.apache.spark.{ListenerBusAccess, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.streaming.{StreamingQueryListener, StreamingQueryProgress}
import scala.collection.concurrent.TrieMap
import scala.jdk.CollectionConverters._

/** One finished Spark task. Times are wall-clock milliseconds (launch,
  * finish) and milliseconds of task metrics; `tag` names the batch the job
  * belonged to, `stage` is the stage name ("collect at ParAbacus.scala:…").
  */
final case class TaskRecord(tag: String, stage: String, launchMs: Long, finishMs: Long,
                            runMs: Long, deserMs: Long, resultSerMs: Long,
                            gettingResultMs: Long, resultBytes: Long) {
  def durationMs: Long = finishMs - launchMs

  /** Spark UI's scheduler delay: the part of the task's life not spent
    * deserialising, running, serialising or fetching its result.
    */
  def schedDelayMs: Long =
    math.max(0L, durationMs - runMs - deserMs - resultSerMs - gettingResultMs)
}

/** Records every task with the batch tag of its job. A job's tag is the
  * local property [[TaskProbe.TagKey]] set by the benchmark, or the
  * micro-batch id Structured Streaming sets on the jobs of a batch.
  */
final class TaskProbe extends SparkListener {
  private val jobTag = TrieMap.empty[Int, String]
  private val stageJob = TrieMap.empty[Int, Int]
  private val stageName = TrieMap.empty[Int, String]
  private val records = new ConcurrentLinkedQueue[TaskRecord]

  override def onJobStart(js: SparkListenerJobStart): Unit = {
    val props = Option(js.properties)
    val tag = props.flatMap(p => Option(p.getProperty(TaskProbe.TagKey)))
      .orElse(props.flatMap(p => Option(p.getProperty(TaskProbe.StreamBatchKey)).map("stream:" + _)))
      .getOrElse("")
    jobTag(js.jobId) = tag
    js.stageInfos.foreach { s => stageJob(s.stageId) = js.jobId; stageName(s.stageId) = s.name }
  }

  override def onTaskEnd(te: SparkListenerTaskEnd): Unit = {
    val m = te.taskMetrics
    val i = te.taskInfo
    if (m != null && i != null) {
      val tag = stageJob.get(te.stageId).flatMap(jobTag.get).getOrElse("")
      records.add(TaskRecord(tag, stageName.getOrElse(te.stageId, ""), i.launchTime, i.finishTime,
        m.executorRunTime, m.executorDeserializeTime, m.resultSerializationTime,
        i.gettingResultTime, m.resultSize))
    }
  }

  /** All tasks recorded so far, after the listener bus has drained. */
  def tasks(sc: SparkContext): Seq[TaskRecord] = {
    ListenerBusAccess.drain(sc)
    records.asScala.toSeq
  }
}

object TaskProbe {
  val TagKey = "perfbench.batch"
  /** Local property Structured Streaming puts on the jobs of a micro-batch. */
  val StreamBatchKey = "streaming.sql.batchId"
}

/** Collects the progress of every micro-batch of every query. */
final class ProgressProbe extends StreamingQueryListener {
  private val events = new ConcurrentLinkedQueue[StreamingQueryProgress]
  override def onQueryStarted(e: StreamingQueryListener.QueryStartedEvent): Unit = ()
  override def onQueryTerminated(e: StreamingQueryListener.QueryTerminatedEvent): Unit = ()
  override def onQueryProgress(e: StreamingQueryListener.QueryProgressEvent): Unit = events.add(e.progress)

  def progress(sc: SparkContext, queryId: java.util.UUID): Seq[StreamingQueryProgress] = {
    ListenerBusAccess.drain(sc)
    events.asScala.toSeq.filter(_.id == queryId).sortBy(_.batchId)
  }
}
