package repro.perfbench

import java.nio.file.{Files, Path, Paths}
import java.util.Comparator

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.expressions.XXH64
import org.apache.spark.sql.functions.{bit_xor, col, count, lit, xxhash64}
import org.apache.spark.unsafe.Platform

import repro.core.{PcrDecoder, PcrEncoder, PcrRecord, RecordManifest}
import repro.core.datasource.{PcrInputPartition, PcrReaderFactory}
import repro.imaging.{Mssim, PlanarImage, SyntheticImages}
import repro.jpeg.{Codec, ScanScript}
import repro.pipeline.QueueModel
import repro.train.{Features, SoftmaxModel, Trainer}

/** The outcome of one run: every metric as (value, unit), the operation
  * and failure counts, and human-readable report lines.
  */
final case class RunResult(
    metrics: Seq[(String, Double, String)],
    attempted: Long,
    failures: Seq[String],
    env: Seq[(String, String)],
    report: Seq[String])

/** One benchmark run of workload `w`: set-up, a timed phase of at least
  * `seconds`, and the correctness gate. With `trace` the timed phase runs
  * under a Spark listener and is followed by single-thread probes of each
  * layer, and the per-layer metrics are reported instead of the end-to-end
  * ones.
  */
final class Bench(
    spark: SparkSession,
    w: Workload,
    seed: Long,
    seconds: Double,
    trace: Boolean,
    cores: Int,
    work: Path) {
  import Bench._

  private val spec = w.spec
  private val dataDir = work.resolve("data").toString
  private val encodeRecords = math.min(EncodeRecords, w.nRecords)
  private val encodeImages = encodeRecords * spec.imagesPerRecord
  private val encodeSf = encodeImages.toDouble / spec.imagesPerSf
  require(spec.numImages(encodeSf) == encodeImages, s"cannot size a $encodeImages-image encode")
  private val params0 = SoftmaxModel.init(spec.numClasses, Features.dim(Features.resnetLite, spec.width, spec.height))

  private var attempted = 0L
  private val failures = ArrayBuffer.empty[String]
  private val wall = mutable.Map.empty[String, ArrayBuffer[Double]] // op -> seconds per call
  private val stolen = mutable.Map.empty[String, ArrayBuffer[Double]] // op -> steal share per call
  private val gcMs = mutable.Map.empty[String, Long].withDefaultValue(0L)
  private var opCount = 0
  private var firstTimedOp = 0
  private var scanRchar = 0L
  private val scanChecksums = ArrayBuffer.empty[Long]
  private val gradients = ArrayBuffer.empty[(Array[Double], Double, Long)]
  private var listener: Option[TaskListener] = None
  private val tracer = new Tracer

  /** Seconds of the calls of `op` during which the hypervisor took little
    * CPU from the machine: those with a steal share of at most
    * `MaxStealShare`, or, when that leaves fewer than half of the calls, the
    * less-stolen half. Steal comes from other tenants of the host, not from
    * the program, and it slows a four-core scan far more than its share.
    */
  private def quiet(op: String): Seq[Double] = {
    val calls = wall(op).zip(stolen(op)).toSeq
    val low = calls.filter(_._2 <= MaxStealShare)
    (if (2 * low.size >= calls.size) low else calls.sortBy(_._2).take((calls.size + 1) / 2)).map(_._1)
  }

  private def check(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) failures += what
  }

  /** Time one attempted operation under its own Spark job group. A throw
    * counts as a failure and yields None.
    */
  private def timed[A](op: String)(body: => A): Option[A] = {
    attempted += 1
    opCount += 1
    spark.sparkContext.setJobGroup(s"$op#$opCount", op, interruptOnCancel = false)
    val gc0 = Counters.gcMillis()
    val (steal0, ticks0) = Counters.cpuTicks()
    val t0 = System.nanoTime()
    try {
      val a = body
      wall.getOrElseUpdate(op, ArrayBuffer.empty) += (System.nanoTime() - t0) / 1e9
      val (steal1, ticks1) = Counters.cpuTicks()
      stolen.getOrElseUpdate(op, ArrayBuffer.empty) += (steal1 - steal0).toDouble / math.max(ticks1 - ticks0, 1L)
      gcMs(op) += Counters.gcMillis() - gc0
      Some(a)
    } catch {
      case e: Exception =>
        failures += s"$op threw $e"
        e.printStackTrace()
        None
    } finally spark.sparkContext.clearJobGroup()
  }

  private def scanOnce(op: String): Unit = {
    val r0 = Counters.rchar()
    val row = timed(op) {
      spark.read.format("pcr").option("scanGroup", w.scanGroup).load(dataDir)
        .agg(count(lit(1)), bit_xor(xxhash64(col("y"), col("cb"), col("cr")))).head()
    }
    if (op == "scan") scanRchar += Counters.rchar() - r0
    row.foreach { r =>
      check(r.getLong(0) == w.nImages, s"$op counted ${r.getLong(0)} rows, expected ${w.nImages}")
      scanChecksums += r.getLong(1)
    }
  }

  private def epochOnce(): Unit =
    timed("epoch")(Trainer.gradient(Trainer.featuresAt(spark, dataDir, w.scanGroup, Features.resnetLite), params0))
      .foreach(gradients += _)

  private def labelCounts(): Map[Int, Long] =
    spark.read.format("pcr").load(dataDir).groupBy("label").count().collect()
      .map(r => r.getInt(0) -> r.getLong(1)).toMap

  private lazy val expectedLabels: Map[Int, Long] =
    (0L until w.nImages).groupBy(SyntheticImages.label(spec, _)).map { case (l, ids) => l -> ids.size.toLong }

  private def labelOnce(): Unit =
    timed("label")(labelCounts()).foreach(c => check(c == expectedLabels, s"label counts $c != $expectedLabels"))

  private def recordOnce(m: RecordManifest): Unit =
    timed("record")(PcrDecoder.readRecord(m.path, w.scanGroup))
      .foreach(d => check(d.size == m.nImages, s"readRecord of ${m.path} gave ${d.size} images, expected ${m.nImages}"))

  /** Re-encode the first `EncodeRecords` records of the dataset: the
    * encoder's throughput, and a check that the same seed gives
    * byte-identical records.
    */
  private def encodeOnce(i: Int, manifests: Seq[RecordManifest]): Unit = {
    val dir = work.resolve(s"encode-$i")
    timed("encode")(PcrEncoder.encodeDataset(spark, spec, encodeSf, dir.toString, seed))
      .foreach { again =>
        check(again.size == encodeRecords, s"re-encode wrote ${again.size} records, expected $encodeRecords")
        again.zip(manifests).foreach { case (x, y) =>
          check(java.util.Arrays.equals(Files.readAllBytes(Paths.get(x.path)), Files.readAllBytes(Paths.get(y.path))),
            s"re-encoded ${x.path} differs from ${y.path}")
        }
      }
    deleteTree(dir)
  }

  /** One round of the timed phase: every operation the workload measures,
    * each followed by `reads` single-record reads, so the record-read
    * samples are spread over the whole phase rather than taken in one block.
    */
  private def round(i: Int, manifests: Seq[RecordManifest], reads: Int): Unit = {
    val ops: Seq[() => Unit] =
      Seq(() => encodeOnce(i, manifests), () => scanOnce("scan"), () => epochOnce(), () => labelOnce())
    val start = seed + i * ops.size * reads
    ops.zipWithIndex.foreach { case (op, j) =>
      op()
      (0 until reads).foreach { k =>
        recordOnce(manifests(Math.floorMod(start + j * reads + k, manifests.size.toLong).toInt))
      }
    }
  }

  def writeSpans(path: Path): Unit = tracer.writeJson(path)

  def run(jvmStartMs: Long): RunResult = {
    Files.createDirectories(work)
    if (trace) {
      val l = new TaskListener
      spark.sparkContext.addSparkListener(l)
      listener = Some(l)
    }
    val manifests = timed("encode.setup")(PcrEncoder.encodeDataset(spark, spec, w.sf, dataDir, seed)).getOrElse(
      throw new IllegalStateException(s"set-up encode failed: ${failures.mkString("; ")}"))
    require(manifests.map(_.nImages).sum == w.nImages && manifests.size == w.nRecords,
      s"encoded ${manifests.size} records / ${manifests.map(_.nImages).sum} images, " +
        s"expected ${w.nRecords} / ${w.nImages}")
    // Warm-up: untimed rounds so JIT compilation and Spark's first-query
    // planning land in set-up, not in the samples. Read throughput keeps
    // climbing for several seconds after the first pass.
    val w0 = System.nanoTime()
    var warm = 0
    while (warm < MinWarmupRounds || (System.nanoTime() - w0) / 1e9 < WarmupSeconds) {
      warm += 1
      round(-warm, manifests, 1)
    }
    val setupS = (System.currentTimeMillis() - jvmStartMs) / 1e3
    wall.clear(); stolen.clear(); gcMs.clear()
    scanChecksums.clear(); gradients.clear(); scanRchar = 0L

    val readsPerOp = (RecordSamples + MinRounds * OpsPerRound - 1) / (MinRounds * OpsPerRound)
    firstTimedOp = opCount + 1
    val (steal0, ticks0) = Counters.cpuTicks()
    val t0 = System.nanoTime()
    var rounds = 0
    while (rounds < MinRounds || (System.nanoTime() - t0) / 1e9 < seconds) {
      round(rounds, manifests, readsPerOp)
      rounds += 1
    }
    val phaseS = (System.nanoTime() - t0) / 1e9
    val (steal1, ticks1) = Counters.cpuTicks()

    val lib = libraryPass(manifests)
    gate(manifests, lib)

    val env = Seq(
      "workload" -> w.name, "seed" -> seed.toString, "sf" -> w.sf.toString,
      "scan_group" -> w.scanGroup.toString, "images" -> w.nImages.toString,
      "records" -> w.nRecords.toString, "images_per_record" -> spec.imagesPerRecord.toString,
      "master" -> spark.sparkContext.master, "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "java" -> System.getProperty("java.version"), "spark" -> spark.version,
      "scala" -> scala.util.Properties.versionNumberString,
      "trace" -> trace.toString, "rounds" -> rounds.toString, "timed_phase_s" -> f"$phaseS%.3f",
      "cpu_steal_frac" -> f"${(steal1 - steal0).toDouble / math.max(ticks1 - ticks0, 1L)}%.4f") ++
      wall.keys.toSeq.sorted.map(op => s"samples_$op" -> s"${quiet(op).size} quiet of ${wall(op).size}")

    val (metrics, report) =
      if (trace) perLayer(manifests)
      else (endToEnd(manifests, setupS, lib), Nil)
    RunResult(metrics, attempted, failures.toSeq, env, report)
  }

  private def libraryPass(manifests: Seq[RecordManifest]): Library = {
    var xor = 0L
    val grad = new Array[Double](params0.theta.length)
    var loss = 0.0
    var n = 0L
    var ssim = 0.0
    for (m <- manifests; d <- PcrDecoder.readRecord(m.path, w.scanGroup)) {
      xor ^= rowHash(d.image)
      loss += SoftmaxModel.accumulate(params0, Features.resnetLite.extract(d.image), d.label, grad)
      ssim += Mssim.msssim(SyntheticImages.generate(spec, d.id, seed), d.image)
      n += 1
    }
    Library(xor, grad.map(_ / n), loss / n, n, ssim / n)
  }

  private def gate(manifests: Seq[RecordManifest], lib: Library): Unit = {
    check(lib.n == w.nImages, s"library decode gave ${lib.n} images, expected ${w.nImages}")
    scanChecksums.foreach(c => check(c == lib.checksum,
      f"DSv2 checksum $c%x != library checksum ${lib.checksum}%x"))
    gradients.foreach { case (g, loss, n) =>
      check(n == w.nImages, s"epoch saw $n images, expected ${w.nImages}")
      check(relDiff(g, lib.grad) < 1e-9 && math.abs(loss - lib.loss) < 1e-9,
        s"epoch gradient differs from library gradient by ${relDiff(g, lib.grad)} (loss $loss vs ${lib.loss})")
    }
    check(lib.mssim > 0 && lib.mssim <= 1, s"mean MS-SSIM ${lib.mssim} outside (0, 1]")

    // Full progressive decode equals sequential decode, bit for bit.
    val full = PcrDecoder.readRecord(manifests.head.path, Int.MaxValue).take(SequentialSample)
    full.foreach { d =>
      val src = SyntheticImages.generate(spec, d.id, seed)
      val seq = Codec.decodeSequential(Codec.encodeSequential(src, spec.quality), spec.quality, spec.width, spec.height)
      check(samePixels(seq, d.image), s"image ${d.id}: progressive decode != sequential decode")
    }

    // A scan reads at least the prefix of every record.
    val prefix = manifests.map { m =>
      val h = PcrDecoder.readHeader(m.path)
      h.prefixLength(math.min(w.scanGroup, h.nScanGroups))
    }.sum
    val scans = wall.get("scan").map(_.size).getOrElse(0)
    check(scans > 0 && scanRchar >= prefix * scans,
      s"scans read $scanRchar bytes in $scans passes, less than the $prefix-byte prefix per pass")
  }

  private def endToEnd(manifests: Seq[RecordManifest], setupS: Double, lib: Library): Seq[(String, Double, String)] = {
    val n = w.nImages.toDouble
    val rec = quiet("record").map(_ * 1e3)
    Seq(
      ("setup_s", setupS, "s"),
      ("scan_images_per_s", n / median(quiet("scan")), "images/s"),
      ("epoch_images_per_s", n / median(quiet("epoch")), "images/s"),
      ("label_count_ms", median(quiet("label")) * 1e3, "ms"),
      ("record_read_ms_p50", percentile(rec, 0.5), "ms"),
      ("record_read_ms_p90", percentile(rec, 0.9), "ms"),
      ("io_read_bytes_per_image", scanRchar / (n * wall("scan").size), "B"),
      ("mssim", lib.mssim, "ratio"),
      ("encode_images_per_s", encodeImages / median(quiet("encode")), "images/s"),
      ("stored_bytes_per_image", manifests.map(_.totalBytes).sum / n, "B"))
  }

  /** Per-layer metrics: Spark task statistics of the scans (and of the
    * re-encodes, for the encoder's shuffle) from the listener, then
    * single-thread probes that call each layer's public functions on a
    * sample of the workload's records.
    */
  private def perLayer(manifests: Seq[RecordManifest]): (Seq[(String, Double, String)], Seq[String]) = {
    val l = listener.get
    l.settle()
    spark.sparkContext.removeSparkListener(l)
    val opWall = wall("scan").toSeq
    val tasks = l.tasksOfOp("scan", firstTimedOp)
    val encodeTasks = l.tasksOfOp("encode", firstTimedOp)
    val runMs = tasks.map(_.runMs.toDouble)

    // Tracing overhead: scans with a listener attached against scans
    // without, alternated so both see the same JIT and cache state.
    (0 until OverheadPairs).foreach { _ =>
      val extra = new TaskListener
      spark.sparkContext.addSparkListener(extra)
      scanOnce("scan.traced")
      spark.sparkContext.removeSparkListener(extra)
      scanOnce("scan.untraced")
    }
    val overheadMs = (median(wall("scan.traced").toSeq) - median(wall("scan.untraced").toSeq)) * 1e3

    val probe = manifests.take(math.max(1, ProbeImages / spec.imagesPerRecord))
    val probeImages = probe.map(_.nImages).sum
    val g = math.min(w.scanGroup, ScanScript.progressive10.size)
    val grad = new Array[Double](params0.theta.length)
    var readBytes = 0L
    for (m <- probe) tracer.span("probe.record", m.nImages) {
      tracer.span("core.readHeader", m.nImages)(PcrDecoder.readHeader(m.path))
      val r0 = Counters.rchar()
      val (header, entries) = tracer.span("core.readRecordRaw", m.nImages)(PcrDecoder.readRecordRaw(m.path, g))
      readBytes += Counters.rchar() - r0
      val prefix = readPrefix(m.path, header.prefixLength(g))
      tracer.span("core.parsePrefix", m.nImages)(PcrRecord.parsePrefix(prefix, g))
      entries.foreach { e =>
        val (ci, depth) = tracer.span("jpeg.decodeScans", 1)(
          Codec.decodeScans(e.scans, ScanScript.progressive10, header.width, header.height))
        val img = tracer.span("jpeg.fromCoefficients", 1)(Codec.fromCoefficients(ci, header.quality, depth))
        val x = tracer.span("train.extract", 1)(Features.resnetLite.extract(img))
        tracer.span("train.accumulate", 1)(SoftmaxModel.accumulate(params0, x, e.label, grad))
      }
      // The reader decodes the whole record on its first next(); the rows
      // after it cost only row materialization (the reader's self time).
      tracer.span("datasource.reader", m.nImages) {
        val reader = new PcrReaderFactory().createReader(PcrInputPartition(m.path, g))
        try {
          var row = 0
          while (tracer.span(if (row == 0) "datasource.first_row" else "datasource.row", 1) {
            reader.next() && { reader.get(); true }
          }) row += 1
        } finally reader.close()
      }
      val entriesOut = (m.recordIndex * spec.imagesPerRecord until m.recordIndex * spec.imagesPerRecord + m.nImages).map { id =>
        val src = tracer.span("imaging.generate", 1)(SyntheticImages.generate(spec, id, seed))
        val ci = tracer.span("jpeg.toCoefficients", 1)(Codec.toCoefficients(src, spec.quality))
        val scans = tracer.span("jpeg.encodeScript", 1)(Codec.encodeScript(ci, ScanScript.progressive10))
        repro.core.PcrImageEntry(id, SyntheticImages.label(spec, id), scans)
      }
      tracer.span("core.serialize", m.nImages)(PcrRecord.serialize(spec.width, spec.height, spec.quality, entriesOut))
    }

    val headerBytes = manifests.map(_.groupEndOffsets.head).sum
    val r0 = Counters.rchar()
    timed("label.traced")(labelCounts())
    val labelBytes = Counters.rchar() - r0

    val ns: String => Double = tracer.nsPerImage
    val rowSelf = ns("datasource.row")
    // Lemma A.4: the loader (file read) and compute (entropy decode, IDCT,
    // row materialization, run one after another on a core) proceed
    // concurrently, so the scan runs at the slower of the two.
    val computeStages = Seq(
      "jpeg.entropy_decode" -> ns("jpeg.decodeScans"),
      "jpeg.idct" -> ns("jpeg.fromCoefficients"),
      "datasource.row" -> rowSelf)
    val ioRate = cores * 1e9 / ns("core.readRecordRaw")
    val computeRate = cores * 1e9 / computeStages.map(_._2).sum
    val predicted = QueueModel.pipelineRate(computeRate, ioRate)
    val bounding =
      if (ioRate <= computeRate) "io (core.read)"
      else s"compute (${computeStages.maxBy(_._2)._1} is the largest part)"
    val measured = w.nImages / median(quiet("scan"))
    val n = w.nImages.toDouble
    val ops = opWall.size.toDouble
    val encodes = wall("encode").size.toDouble

    val metrics = Seq(
      ("jpeg.idct_ns_per_image", ns("jpeg.fromCoefficients"), "ns"),
      ("jpeg.entropy_decode_ns_per_image", ns("jpeg.decodeScans"), "ns"),
      ("jpeg.decode_alloc_bytes_per_image", tracer.allocPerImage("jpeg.decodeScans", "jpeg.fromCoefficients"), "B"),
      ("core.read_record_ns_per_image", ns("core.readRecordRaw"), "ns"),
      ("core.parse_prefix_ns_per_image", ns("core.parsePrefix"), "ns"),
      ("core.header_read_ns_per_record", tracer.named("core.readHeader").map(_.ns).sum.toDouble / probe.size, "ns"),
      ("core.read_bytes_per_image", readBytes.toDouble / probeImages, "B"),
      ("datasource.reader_ns_per_image", ns("datasource.reader"), "ns"),
      ("datasource.row_self_ns_per_image", rowSelf, "ns"),
      ("datasource.label_query_useful_bytes_ratio", headerBytes.toDouble / math.max(labelBytes, 1L), "ratio"),
      ("train.features_ns_per_image", ns("train.extract"), "ns"),
      ("train.gradient_ns_per_image", ns("train.accumulate"), "ns"),
      ("imaging.generate_ns_per_image", ns("imaging.generate"), "ns"),
      ("jpeg.fdct_quant_ns_per_image", ns("jpeg.toCoefficients"), "ns"),
      ("jpeg.entropy_encode_ns_per_image", ns("jpeg.encodeScript"), "ns"),
      ("core.serialize_ns_per_image", ns("core.serialize"), "ns"),
      ("jpeg.encode_alloc_bytes_per_image", tracer.allocPerImage("jpeg.toCoefficients", "jpeg.encodeScript"), "B"),
      ("spark.tasks_per_op", tasks.size / ops, "count"),
      ("spark.core_busy_frac", runMs.sum / (opWall.sum * 1e3 * cores), "ratio"),
      ("spark.task_run_ms_p50", percentile(runMs, 0.5), "ms"),
      ("spark.task_run_ms_max", runMs.max, "ms"),
      ("spark.gc_ms_per_op", gcMs("scan") / ops, "ms"),
      ("spark.shuffle_write_bytes_per_image", encodeTasks.map(_.shuffleWriteBytes).sum / (encodeImages * encodes), "B"),
      ("spark.encode_core_busy_frac", encodeTasks.map(_.runMs).sum / (wall("encode").sum * 1e3 * cores), "ratio"),
      ("pipeline.predicted_images_per_s", predicted, "images/s"),
      ("pipeline.prediction_error", math.abs(predicted - measured) / measured, "ratio"),
      ("trace.scan_overhead_ms", overheadMs, "ms"))

    val report = Seq(
      f"bottleneck: Lemma A.4 over $cores cores: io $ioRate%.0f images/s, compute $computeRate%.0f images/s " +
        f"-> predicted $predicted%.0f images/s, bounded by $bounding; measured scan $measured%.0f images/s " +
        f"(error ${(predicted - measured) / measured * 100}%+.1f%%)") ++
      computeStages.map { case (st, v) => f"  compute stage $st%-20s $v%12.0f ns/image" }
    (metrics, report)
  }
}

object Bench {
  /** What the library decoder (`PcrDecoder.readRecord`) yields for the
    * whole dataset: the scan checksum, the full-batch gradient at the zero
    * model and the mean MS-SSIM against the generated source images.
    */
  final case class Library(checksum: Long, grad: Array[Double], loss: Double, n: Long, mssim: Double)

  /** Timed rounds per run, at least. */
  val MinRounds = 4
  /** Encode, scan, epoch and label query. */
  val OpsPerRound = 4
  /** Records re-encoded per round. */
  val EncodeRecords = 4
  /** Single-record reads per run, at least: p90 then has ten samples beyond it. */
  val RecordSamples = 100
  val MinWarmupRounds = 2
  val WarmupSeconds = 6.0
  /** Largest share of CPU time stolen during a call for it to count as quiet. */
  val MaxStealShare = 0.05
  val SequentialSample = 4
  val ProbeImages = 256
  val OverheadPairs = 3

  /** Spark's `xxhash64(y, cb, cr)` of one decoded row: XXH64 over each
    * plane's bytes, seeded 42 and chained through the columns.
    */
  def rowHash(img: PlanarImage): Long =
    Seq(img.y, img.cb, img.cr).foldLeft(42L) { (h, plane) =>
      val b = plane.map(_.toByte)
      XXH64.hashUnsafeBytes(b, Platform.BYTE_ARRAY_OFFSET.toLong, b.length, h)
    }

  def samePixels(a: PlanarImage, b: PlanarImage): Boolean =
    a.width == b.width && a.height == b.height &&
      java.util.Arrays.equals(a.y, b.y) && java.util.Arrays.equals(a.cb, b.cb) && java.util.Arrays.equals(a.cr, b.cr)

  def relDiff(a: Array[Double], b: Array[Double]): Double = {
    val scale = math.max(b.map(math.abs).max, 1e-300)
    a.zip(b).map { case (x, y) => math.abs(x - y) }.max / scale
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)

  /** Linear-interpolated percentile, `q` in [0, 1]. */
  def percentile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def readPrefix(path: String, len: Long): Array[Byte] = {
    val raf = new java.io.RandomAccessFile(path, "r")
    try { val b = new Array[Byte](len.toInt); raf.readFully(b); b } finally raf.close()
  }

  def deleteTree(p: Path): Unit =
    if (Files.exists(p)) {
      val s = Files.walk(p)
      try s.sorted(Comparator.reverseOrder[Path]()).forEach(f => Files.delete(f)) finally s.close()
    }
}
