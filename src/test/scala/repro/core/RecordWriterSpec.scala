package repro.core

import java.nio.file.{Files, Path, Paths}
import java.util.UUID
import java.util.concurrent.{LinkedBlockingQueue, TimeUnit}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.util.QueryExecutionListener
import org.scalatest.Assertions

import repro.{SparkSpec, TempDirs}
import repro.imaging.SyntheticImages
import repro.jpeg.Codec

/** The shared record writer: atomic record files, and one shuffle-free task
  * per record, with no SQL execution, for the PCR, TFRecord-like and
  * File-per-Image writers.
  */
class RecordWriterSpec extends SparkSpec {

  private def names(dir: Path): Seq[String] = {
    val s = Files.list(dir)
    try s.iterator().asScala.map(_.getFileName.toString).toSeq.sorted
    finally s.close()
  }

  test("a serializer that throws for one record leaves neither a final nor a temp file for it") {
    import spark.implicits._
    val dir = TempDirs.create("writer-fail")
    intercept[Exception] {
      RecordWriter.writeRecords(spark, 300L, 128, dir.toString, "pcr") { ids =>
        if (ids.head == 128L) throw new IllegalStateException("serializer failed")
        Array.fill(ids.length)(1.toByte)
      }((path, _, _) => path)
    }
    assert(!names(dir).exists(_.contains("record-00001")), names(dir))
  }

  test("writeAtomically replaces an existing record and cleans up after a failed rename") {
    val dir = TempDirs.create("writer-atomic")
    val path = dir.resolve("record-00000.tfr")
    RecordWriter.writeAtomically(path, Array[Byte](1, 2, 3))
    RecordWriter.writeAtomically(path, Array[Byte](4, 5))
    assert(Files.readAllBytes(path).toSeq == Seq[Byte](4, 5))
    assert(names(dir) == Seq("record-00000.tfr"))
    // A non-empty directory in the record's place makes the rename fail.
    val blocked = Files.createDirectories(dir.resolve("record-00001.tfr"))
    Files.write(blocked.resolve("x"), Array[Byte](0))
    intercept[java.io.IOException](RecordWriter.writeAtomically(blocked, Array[Byte](7)))
    assert(names(dir) == Seq("record-00000.tfr", "record-00001.tfr"))
  }

  test("listRecords ignores a stray temp file") {
    val dir = TempDirs.create("writer-stray")
    RecordWriter.writeAtomically(dir.resolve("record-00000.pcr"), Array[Byte](1))
    Files.write(dir.resolve(s".record-00001.pcr.${UUID.randomUUID()}.tmp"), Array[Byte](1))
    assert(PcrEncoder.listRecords(dir.toString) == Seq(dir.resolve("record-00000.pcr").toString))
  }

  /** Tasks run and shuffle bytes written by the Spark jobs of `work`. */
  private def taskStats(work: => Unit): (Int, Long) =
    GroupTaskListener.observe(spark, "record-writer")(work).stats

  test("both writers run one task per record and shuffle nothing") {
    val spec = SyntheticImages.cars
    val sf = 0.1 // 80 images → records of 64 and 16
    val pcrDir = TempDirs.create("writer-pcr").toString
    val tfrDir = TempDirs.create("writer-tfr").toString
    var pcr = Seq.empty[RecordManifest]
    var tfr = Seq.empty[(String, Long)]
    assert(taskStats { pcr = PcrEncoder.encodeDataset(spark, spec, sf, pcrDir) } == ((2, 0L)))
    assert(taskStats { tfr = BaselineFormats.writeTfRecordLike(spark, spec, sf, tfrDir) } == ((2, 0L)))
    assert(pcr.map(_.nImages) == Seq(64, 16))
    assert(tfr.map(t => Paths.get(t._1).getFileName.toString) == Seq("record-00000.tfr", "record-00001.tfr"))
  }

  test("File-per-Image runs one task per image, shuffles nothing and returns files in id order") {
    val spec = SyntheticImages.cars
    val sf = 0.05 // 40 images
    val n = spec.numImages(sf)
    val dir = TempDirs.create("writer-fpi").toString
    var files = Seq.empty[(String, Long)]
    assert(taskStats { files = BaselineFormats.writeFilePerImage(spark, spec, sf, dir) } == ((n, 0L)))
    assert(files.map(f => Paths.get(f._1).getFileName.toString) == (0 until n).map(id => f"record-$id%05d.jpg"))
    for (((path, len), id) <- files.zipWithIndex) {
      val expected = Codec.encodeSequential(SyntheticImages.generate(spec, id.toLong), spec.quality)
      assert(len == expected.length && Files.readAllBytes(Paths.get(path)).sameElements(expected), s"image $id")
    }
  }

  test("the writers run no SQL execution") {
    val spec = SyntheticImages.cars
    val sf = 0.02
    def sqlExecutions(work: => Unit) = SqlExecutions.observe(spark)(work)
    assert(sqlExecutions(PcrEncoder.encodeDataset(spark, spec, sf, TempDirs.create("sql-pcr").toString)).isEmpty)
    assert(sqlExecutions(BaselineFormats.writeTfRecordLike(spark, spec, sf, TempDirs.create("sql-tfr").toString)).isEmpty)
    assert(sqlExecutions(BaselineFormats.writeFilePerImage(spark, spec, sf, TempDirs.create("sql-fpi").toString)).isEmpty)
  }
}

/** Counts the jobs, tasks and shuffle-write bytes of one job group. */
final class GroupTaskListener(val group: String) extends SparkListener {
  private val jobs = mutable.Set.empty[Int]
  private val stages = mutable.Set.empty[Int]
  private var jobsEnded = 0
  private var tasks = 0
  private var shuffleBytes = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    if (Option(e.properties).exists(_.getProperty("spark.jobGroup.id") == group)) {
      jobs += e.jobId
      stages ++= e.stageIds
    }
  }
  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (jobs(e.jobId)) jobsEnded += 1
  }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (stages(e.stageId)) {
      tasks += 1
      shuffleBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten
    }
  }

  def settled: Boolean = synchronized(jobs.nonEmpty && jobsEnded == jobs.size)
  def jobCount: Int = synchronized(jobs.size)
  def stats: (Int, Long) = synchronized((tasks, shuffleBytes))
}

object GroupTaskListener {
  /** Runs `work` in a job group of its own and returns the listener once it
    * has seen every job of that group end.
    */
  def observe(spark: SparkSession, purpose: String)(work: => Unit): GroupTaskListener = {
    val listener = new GroupTaskListener(s"$purpose-${UUID.randomUUID()}")
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(listener.group, purpose)
      try work finally sc.clearJobGroup()
      // Task-end events reach the listener before their job's end event.
      val deadline = System.currentTimeMillis() + 10000
      while (!listener.settled && System.currentTimeMillis() < deadline) Thread.sleep(10)
      Assertions.assert(listener.settled, s"listener did not see the $purpose jobs end")
      listener
    } finally sc.removeSparkListener(listener)
  }
}

object SqlExecutions {
  /** Function names of the SQL executions `work` runs, as a
    * `QueryExecutionListener` sees them. Listener events arrive in order, so
    * a tagged query run after `work` marks the end of its executions; one
    * run before `work` drains events left over from earlier tests.
    */
  def observe(spark: SparkSession)(work: => Unit): Seq[String] = {
    val seen = new LinkedBlockingQueue[(String, QueryExecution)]()
    val listener = new QueryExecutionListener {
      override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
        seen.add((funcName, qe))
      override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit =
        seen.add((funcName, qe))
    }
    def until(tag: String): Seq[String] = {
      spark.sql(s"SELECT '$tag'").collect()
      val before = Seq.newBuilder[String]
      var next = seen.poll(10, TimeUnit.SECONDS)
      while (next != null && !next._2.logical.toString.contains(tag)) {
        before += next._1
        next = seen.poll(10, TimeUnit.SECONDS)
      }
      Assertions.assert(next != null, s"the listener did not see the query tagged $tag")
      before.result()
    }
    spark.listenerManager.register(listener)
    try {
      until(s"before-${UUID.randomUUID()}")
      work
      until(s"after-${UUID.randomUUID()}")
    } finally spark.listenerManager.unregister(listener)
  }
}
