package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}

/** Process-level counters read around operations. */
object Counters {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes this process has asked the kernel to read (`rchar` of
    * `/proc/self/io`); counts page-cache hits as well as device reads.
    */
  def rchar(): Long =
    Files.readAllLines(Path.of("/proc/self/io")).asScala
      .collectFirst { case l if l.startsWith("rchar:") => l.drop(6).trim.toLong }
      .getOrElse(throw new IllegalStateException("/proc/self/io has no rchar"))

  /** Steal and total CPU ticks of the machine (`/proc/stat`): time the
    * hypervisor ran something else while the machine had work.
    */
  def cpuTicks(): (Long, Long) = {
    val f = Files.readAllLines(Path.of("/proc/stat")).get(0).trim.split("\\s+").drop(1).map(_.toLong)
    (f(7), f.sum)
  }

  /** Bytes allocated so far by the calling thread. */
  def allocated(): Long = threads.getCurrentThreadAllocatedBytes

  /** Total collection time of every garbage collector, in ms. */
  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum
}

/** One timed call into a layer: name, parent span, start and end
  * (`System.nanoTime`), bytes the calling thread allocated, and the number
  * of images the call covered.
  */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long, allocBytes: Long, images: Int) {
  def ns: Long = endNs - startNs
}

/** Spans recorded in memory from the benchmark's own thread, around calls
  * into the program's public functions. Nesting follows the call stack.
  */
final class Tracer {
  private val spans = ArrayBuffer.empty[Span]
  private var current = -1
  private var nextId = 0

  def span[A](name: String, images: Int = 0)(body: => A): A = {
    val id = nextId; nextId += 1
    val parent = current
    current = id
    val a0 = Counters.allocated()
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      spans += Span(id, parent, name, t0, t1, Counters.allocated() - a0, images)
      current = parent
    }
  }

  def named(name: String): Seq[Span] = spans.iterator.filter(_.name == name).toSeq

  /** Summed duration of spans called `name` per image they covered. */
  def nsPerImage(name: String): Double = {
    val s = named(name)
    require(s.nonEmpty && s.map(_.images).sum > 0, s"no spans named $name")
    s.map(_.ns).sum.toDouble / s.map(_.images).sum
  }

  /** Summed allocation of spans called `names` per image of the first name. */
  def allocPerImage(names: String*): Double =
    names.flatMap(named).map(_.allocBytes).sum.toDouble / named(names.head).map(_.images).sum

  def writeJson(path: Path): Unit = {
    val lines = spans.sortBy(_.id).map { s =>
      s"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}","start_ns":${s.startNs},""" +
        s""""end_ns":${s.endNs},"alloc_bytes":${s.allocBytes},"images":${s.images}}"""
    }
    Files.createDirectories(path.getParent)
    Files.write(path, lines.mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
  }
}

/** Spark task metrics of one operation, collected by [[TaskListener]]. */
final case class TaskStat(runMs: Long, shuffleWriteBytes: Long)

/** Collects every finished task by the job group of the job it ran in.
  * The benchmark sets one job group per operation it times.
  */
final class TaskListener extends SparkListener {
  private val stageGroup = mutable.Map.empty[Int, String]
  private val jobGroup = mutable.Map.empty[Int, String]
  private val tasks = mutable.Map.empty[String, ArrayBuffer[TaskStat]]
  private var jobsOpen = 0

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      .getOrElse("")
    jobGroup(e.jobId) = g
    e.stageIds.foreach(stageGroup(_) = g)
    jobsOpen += 1
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { jobsOpen -= 1 }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val g = stageGroup.getOrElse(e.stageId, "")
    val m = e.taskMetrics
    val stat =
      if (m == null) TaskStat(e.taskInfo.duration, 0L)
      else TaskStat(m.executorRunTime, m.shuffleWriteMetrics.bytesWritten)
    tasks.getOrElseUpdate(g, ArrayBuffer.empty) += stat
  }

  /** Block until every job seen so far has ended and the event queue has
    * been quiet for a moment, so the tasks of finished operations are in.
    */
  def settle(timeoutMs: Long = 5000): Unit = {
    val deadline = System.currentTimeMillis() + timeoutMs
    var quietSince = System.currentTimeMillis()
    var last = -1
    while (System.currentTimeMillis() < deadline &&
      !(synchronized(jobsOpen == 0) && System.currentTimeMillis() - quietSince > 200)) {
      val n = synchronized(tasks.valuesIterator.map(_.size).sum + jobGroup.size)
      if (n != last) { last = n; quietSince = System.currentTimeMillis() }
      Thread.sleep(20)
    }
  }

  /** Tasks of every job group `op#k` with `k >= fromCall`, i.e. of the
    * calls of operation `op` from the benchmark's `fromCall`-th operation on.
    */
  def tasksOfOp(op: String, fromCall: Int = 0): Seq[TaskStat] = synchronized {
    tasks.iterator.collect {
      case (g, ts) if g.startsWith(s"$op#") && g.drop(op.length + 1).toInt >= fromCall => ts
    }.flatten.toSeq
  }
}
