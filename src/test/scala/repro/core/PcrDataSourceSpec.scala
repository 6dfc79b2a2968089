package repro.core

import java.nio.file.{Files, Paths, StandardOpenOption}

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.XXH64
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.aggregate.HashAggregateExec
import org.apache.spark.sql.execution.datasources.v2.BatchScanExec
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, IntegerType, LongType}
import org.apache.spark.unsafe.Platform

import repro.{Oracle, SparkSpec, SynthData, TempDirs}
import repro.imaging.SyntheticImages

/** The DataSourceV2 `pcr` reader: fidelity option, schema, SQL-level
  * equivalence of the metadata path against DuckDB, and column pruning,
  * aggregate pushdown and scan metrics. Spark applies every filter after
  * the scan.
  */
class PcrDataSourceSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  private lazy val dir = TempDirs.create("pcr-dsv2").toString
  private val spec = SyntheticImages.celebahq
  private val sf = 0.05 // 120 images → 2 records of 96/24
  private lazy val manifests = PcrEncoder.encodeDataset(spark, spec, sf, dir)

  private def read(g: Int) = {
    manifests // force encoding
    spark.read.format("pcr").option("scanGroup", g).load(dir)
  }

  test("the format is registered under its short name and lists all images") {
    assert(read(10).count() == spec.numImages(sf))
  }

  test("schema matches the documented layout") {
    assert(read(5).schema.fieldNames.toSeq ==
      Seq("id", "label", "width", "height", "scan_group", "bytes_read", "y", "cb", "cr"))
  }

  test("scan_group column reflects the requested fidelity") {
    assert(read(2).select("scan_group").distinct().collect().map(_.getInt(0)).toSeq == Seq(2))
  }

  test("bytes_read shrinks with the scan group") {
    def meanBytes(g: Int): Double =
      read(g).agg(avg("bytes_read")).collect()(0).getDouble(0)
    val b1 = meanBytes(1); val b5 = meanBytes(5); val b10 = meanBytes(10)
    assert(b1 < b5 && b5 < b10, s"$b1, $b5, $b10")
    assert(b10 / b1 > 3, s"scan-1 reduction only ${b10 / b1}")
  }

  test("decoded planes have the right sizes") {
    val r = read(10).select("width", "height", "y", "cb").head()
    val w = r.getInt(0); val h = r.getInt(1)
    assert(r.getAs[Array[Byte]]("y").length == w * h)
    assert(r.getAs[Array[Byte]]("cb").length == w * h / 4)
  }

  test("full-fidelity planes equal the library decoder's output") {
    val rows = read(10).select("id", "y").collect().map(r => r.getLong(0) -> r.getAs[Array[Byte]](1)).toMap
    val direct = PcrDecoder.readRecord(manifests.head.path, 10)
    for (d <- direct.take(3)) {
      val viaSpark = rows(d.id).map(b => b & 0xff)
      assert(viaSpark.sameElements(d.image.y), s"image ${d.id}")
    }
  }

  test("label aggregation through the DSv2 path matches DuckDB (Oracle)") {
    val df = read(10).groupBy("label").agg(count(lit(1)) as "n")
    val meta = SynthData.imageMeta(spark, spec.name, sf)
    Oracle.assertEquivalent(df,
      "SELECT label, count(*) AS n FROM meta GROUP BY label",
      "meta" -> meta)
  }

  test("per-label mean bytes_read through SQL matches DuckDB") {
    val df = read(5).select("id", "label", "bytes_read")
    df.createOrReplaceTempView("pcr5")
    val agg = spark.sql(
      "SELECT label, round(avg(bytes_read), 3) AS mean_bytes FROM pcr5 GROUP BY label")
    Oracle.assertEquivalent(agg,
      "SELECT label, round(avg(CAST(bytes_read AS DOUBLE)), 3) AS mean_bytes " +
        "FROM pcr5 GROUP BY label",
      "pcr5" -> df)
  }

  test("a missing path is rejected") {
    assertThrows[Exception](spark.read.format("pcr").load("/nonexistent-dir-xyz").count())
  }

  test("scanGroup below 1 is rejected") {
    assertThrows[Exception](read(0).count())
  }

  private lazy val meta = SynthData.imageMeta(spark, spec.name, sf)

  private def scanOf(df: DataFrame): BatchScanExec = {
    val scans = collect(df.queryExecution.executedPlan) { case s: BatchScanExec => s }
    assert(scans.size == 1, df.queryExecution.executedPlan)
    scans.head
  }

  /** Runs `df` and returns the metrics of its one `pcr` scan. */
  private def scanMetrics(df: DataFrame): Map[String, Long] = {
    df.collect()
    scanOf(df).metrics.map { case (k, m) => k -> m.value }
  }

  test("a pruned id/label selection matches DuckDB") {
    val df = read(10).select("id", "label")
    assert(scanOf(df).output.map(_.name) == Seq("id", "label"))
    Oracle.assertEquivalent(df, "SELECT id, label FROM meta", "meta" -> meta)
  }

  test("count() matches DuckDB") {
    Oracle.assertEquivalent(read(10).agg(count(lit(1)) as "n"),
      "SELECT count(*) AS n FROM meta", "meta" -> meta)
  }

  test("mean bytes_read at g in {1, 5, 10} matches DuckDB over the record prefix lengths") {
    for (g <- Seq(1, 5, 10)) {
      val records = spark.createDataFrame(manifests.map(m =>
        (m.recordIndex, PcrDecoder.readHeader(m.path).prefixLength(g).toDouble / m.nImages)))
        .toDF("record", "per_image")
      Oracle.assertEquivalent(read(g).agg(round(avg("bytes_read"), 3) as "mean_bytes"),
        "SELECT round(avg(CAST(r.per_image AS DOUBLE)), 3) AS mean_bytes FROM meta m " +
          s"JOIN records r ON CAST(m.id AS BIGINT) // ${spec.imagesPerRecord} = CAST(r.record AS BIGINT)",
        "meta" -> meta, "records" -> records)
    }
  }

  test("label IN and id < k pushed into the scan match DuckDB") {
    val df = read(5).where(col("label").isin(1, 3) && col("id") < 50)
      .groupBy("label").agg(count(lit(1)) as "n")
    Oracle.assertEquivalent(df,
      "SELECT label, count(*) AS n FROM meta " +
        "WHERE CAST(label AS INT) IN (1, 3) AND CAST(id AS BIGINT) < 50 GROUP BY label",
      "meta" -> meta)
  }

  test("OR, NOT, <> and literal-first comparisons are pushed and match DuckDB") {
    for (cond <- Seq("NOT (label = 1) OR 11 > id", "label <> 0 AND id BETWEEN 20 AND 99",
        "NOT (id IN (1, 2, 3) OR id >= 12)")) {
      val df = read(1).where(cond).select("id", "label")
      assert(scanMetrics(read(1).where(cond).select("id", "y"))("imagesDecoded") == spec.numImages(sf), cond)
      Oracle.assertEquivalent(df,
        s"SELECT id, label FROM (SELECT CAST(id AS BIGINT) AS id, CAST(label AS INT) AS label FROM meta) " +
          s"WHERE $cond",
        "meta" -> meta)
    }
  }

  test("a predicate on another column is not pushed but still applies") {
    val df = read(1).where(col("width") > 0 && col("label") === 1).select("id")
    Oracle.assertEquivalent(df, "SELECT id FROM meta WHERE CAST(label AS INT) = 1", "meta" -> meta)
  }

  test("a filtered pixel query decodes all, equal to the library's") {
    val label = 1
    val df = read(5).select("id", "y").where(col("label") === label)
    val rows = df.collect().map(r => r.getLong(0) -> r.getAs[Array[Byte]](1)).toMap
    val direct = manifests.flatMap(m => PcrDecoder.readRecord(m.path, 5)).filter(_.label == label)
    assert(rows.keySet == direct.map(_.id).toSet)
    for (d <- direct) assert(rows(d.id).map(b => b & 0xff).sameElements(d.image.y), s"image ${d.id}")
    assert(scanMetrics(df)("imagesDecoded") == spec.numImages(sf))
  }

  /** Reads one partition of `paths` at scan group 5: its rows and its
    * final metrics.
    */
  private def readPartition(paths: Seq[String]): (Seq[InternalRow], Map[String, Long]) = {
    val reader = new datasource.PcrReaderFactory().createReader(datasource.PcrInputPartition(paths, 5))
    try {
      val rows = Iterator.continually(reader.next()).takeWhile(identity).map(_ => reader.get()).toVector
      (rows, reader.currentMetricsValues().map(m => m.name() -> m.value()).toMap)
    } finally reader.close()
  }

  private def records = manifests.sortBy(_.recordIndex)

  test("one partition of every record yields readRecord's images in path order") {
    val (rows, m) = readPartition(records.map(_.path))
    val direct = records.flatMap(r => PcrDecoder.readRecord(r.path, 5))
    assert(rows.map(r => (r.getLong(0), r.getInt(1), r.getInt(4), r.getDouble(5))) ==
      direct.map(d => (d.id, d.label, d.scanGroup, d.bytesRead)))
    for ((r, d) <- rows.zip(direct); (plane, ordinal) <- Seq(d.image.y, d.image.cb, d.image.cr).zip(6 to 8))
      assert(r.getBinary(ordinal).map(_ & 0xff).sameElements(plane), s"image ${d.id} column $ordinal")
    assert(m == Map("imagesDecoded" -> direct.size.toLong, "recordBytesRead" -> records.map(_.prefixBytes(5)).sum))
  }

  test("a luma query skips the chroma scans: Cb scans overwritten with 0xFF still give readRecord's luma") {
    val first = records.head
    val header = PcrDecoder.readHeader(first.path)
    // Scan group 3 holds every image's Cb AC scan: keep its length table, overwrite its scans.
    val bytes = Files.readAllBytes(Paths.get(first.path))
    java.util.Arrays.fill(bytes, (header.groupEndOffsets(2) + 4L * header.nImages).toInt,
      header.groupEndOffsets(3).toInt, 0xff.toByte)
    val dir = TempDirs.create("pcr-cb-overwritten")
    Files.write(dir.resolve(Paths.get(first.path).getFileName), bytes)
    val df = spark.read.format("pcr").load(dir.toString)
    val rows = df.select("id", "y").collect()
    val intact = PcrDecoder.readRecord(first.path, Int.MaxValue)
    assert(rows.map(_.getLong(0)).toSeq == intact.map(_.id))
    for ((r, d) <- rows.zip(intact)) assert(r.getAs[Array[Byte]](1).map(_ & 0xff).sameElements(d.image.y), s"image ${d.id}")
    val e = intercept[Exception](df.select("id", "cb").collect())
    assert(Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).exists(_.isInstanceOf[IllegalArgumentException]), e)
  }

  test("an empty partition yields no row and zero metrics") {
    assert(readPartition(Seq.empty) == ((Seq.empty, Map("imagesDecoded" -> 0L, "recordBytesRead" -> 0L))))
  }

  private val packedSpec = spec.copy(imagesPerRecord = 10) // 120 images → 12 records of 10
  private lazy val packedDir = TempDirs.create("pcr-packed").toString
  private lazy val packedRecords = PcrEncoder.encodeDataset(spark, packedSpec, sf, packedDir).sortBy(_.recordIndex)

  /** The record paths of each partition the `pcr` scan of `dir` plans. */
  private def planned(dir: String): Seq[Seq[String]] =
    new datasource.PcrScanBuilder(dir, 5).build().toBatch.planInputPartitions().toSeq
      .map(_.asInstanceOf[datasource.PcrInputPartition].paths)

  /** Runs `body` with the SQL confs `kvs` set, then restores their earlier values. */
  private def withSQLConf[A](kvs: (String, String)*)(body: => A): A = {
    val before = kvs.map { case (k, _) => k -> spark.conf.getOption(k) }
    kvs.foreach { case (k, v) => spark.conf.set(k, v) }
    try body
    finally before.foreach {
      case (k, Some(v)) => spark.conf.set(k, v)
      case (k, None) => spark.conf.unset(k)
    }
  }

  test("the default plan packs consecutive records into at most defaultParallelism partitions") {
    packedRecords
    val parts = planned(packedDir)
    assert(parts.size > 1 && parts.size <= spark.sparkContext.defaultParallelism, parts)
    assert(parts.flatten == PcrEncoder.listRecords(packedDir))
  }

  test("maxPartitionBytes=1 plans one record per partition") {
    packedRecords
    assert(withSQLConf("spark.sql.files.maxPartitionBytes" -> "1")(planned(packedDir)) ==
      PcrEncoder.listRecords(packedDir).map(Seq(_)))
  }

  test("minPartitionNum raises the partition count") {
    val n = packedRecords.size
    val counts = Seq(1, 3, n).map(k => withSQLConf("spark.sql.files.minPartitionNum" -> k.toString)(planned(packedDir).size))
    assert(counts == Seq(1, 3, n))
    assert(spark.conf.getOption("spark.sql.files.minPartitionNum").isEmpty)
  }

  test("a packed scan yields readRecord's images in path order with exact metrics") {
    val df = spark.read.format("pcr").option("scanGroup", 5).load(packedDir)
    val rows = df.collect()
    val direct = packedRecords.flatMap(r => PcrDecoder.readRecord(r.path, 5))
    assert(rows.map(r => (r.getLong(0), r.getInt(1), r.getInt(4), r.getDouble(5))).toSeq ==
      direct.map(d => (d.id, d.label, d.scanGroup, d.bytesRead)))
    for ((r, d) <- rows.zip(direct); (plane, column) <- Seq(d.image.y, d.image.cb, d.image.cr).zip(Seq("y", "cb", "cr")))
      assert(r.getAs[Array[Byte]](column).map(_ & 0xff).sameElements(plane), s"image ${d.id} column $column")
    val m = scanOf(df).metrics.map { case (k, v) => k -> v.value }
    assert(m("imagesDecoded") == direct.size && m("recordBytesRead") == packedRecords.map(_.prefixBytes(5)).sum, m)
  }

  test("a packed scan runs one task per planned partition") {
    packedRecords
    withSQLConf("spark.sql.files.minPartitionNum" -> "3") {
      assert(planned(packedDir).size == 3)
      assert(jobStats(spark.read.format("pcr").load(packedDir).select("id", "y").collect()) == ((1, 3, 0L)))
    }
  }

  test("an empty directory plans no partition and scans no row") {
    val empty = TempDirs.create("pcr-empty").toString
    assert(planned(empty).isEmpty)
    assert(spark.read.format("pcr").load(empty).select("id", "y").collect().isEmpty)
  }

  test("metadata queries read only the header: a record cut after its header answers them") {
    val m = manifests.head
    val intact = TempDirs.create("pcr-intact")
    val cut = TempDirs.create("pcr-cut")
    val name = Paths.get(m.path).getFileName
    Files.copy(Paths.get(m.path), intact.resolve(name))
    Files.write(cut.resolve(name), Files.readAllBytes(Paths.get(m.path)).take(m.groupEndOffsets.head.toInt),
      StandardOpenOption.CREATE_NEW)
    def load(dir: java.nio.file.Path) = spark.read.format("pcr").option("scanGroup", 5).load(dir.toString)
    def rows(df: DataFrame) = df.collect().map(_.toSeq).toSet
    for (q <- Seq[DataFrame => DataFrame](
        _.select("id", "label", "bytes_read"),
        _.groupBy("label").count(),
        _.where(col("label") === 1).select("id"),
        _.agg(count(lit(1)))))
      assert(rows(q(load(cut))) == rows(q(load(intact))))
    assert(load(cut).count() == m.nImages)
    assertThrows[Exception](load(cut).select("id", "y").collect())
  }

  test("a label-only query decodes no image; a full scan decodes and reads bytes") {
    val labels = scanMetrics(read(10).groupBy("label").count())
    assert(labels("imagesDecoded") == 0 && labels("recordBytesRead") > 0, labels)
    val full = scanMetrics(read(10))
    assert(full("imagesDecoded") == spec.numImages(sf), full)
    assert(full("recordBytesRead") == manifests.map(_.totalBytes).sum, full)
  }

  test("explain shows the pruned columns and no pushed predicate") {
    val out = new java.io.ByteArrayOutputStream
    Console.withOut(out)(read(5).where(col("label") === 1 && col("id") < 7).select("id").explain())
    val plan = out.toString
    assert(plan.contains("columns=[id, label]"), plan)
    assert(!plan.contains("pushed="), plan)
  }

  private def plan(df: DataFrame) = df.queryExecution.executedPlan

  /** One `PcrCountScan` (`scanOf` asserts a single scan), no exchange and no `HashAggregateExec`. */
  private def pushedCount(df: DataFrame): Boolean = {
    val p = plan(df)
    collect(p) { case a: HashAggregateExec => a }.isEmpty &&
      collect(p) { case e: ShuffleExchangeExec => e }.isEmpty &&
      scanOf(df).scan.isInstanceOf[datasource.PcrCountScan]
  }

  test("pushed COUNT of header columns grouped by header columns matches DuckDB") {
    for (g <- Seq(1, 10)) {
      val df = read(g).groupBy("label").count()
      Oracle.assertEquivalent(df, "SELECT label, count(*) AS count FROM meta GROUP BY label", "meta" -> meta)
      assert(pushedCount(df), plan(df))
    }
    val byWidth = read(5).groupBy("label", "width").agg(count("id") as "n")
    Oracle.assertEquivalent(byWidth,
      s"SELECT label, ${spec.width} AS width, count(id) AS n FROM meta GROUP BY label", "meta" -> meta)
    assert(pushedCount(byWidth), plan(byWidth))
    assert(pushedCount(read(10).agg(count(lit(1)))))
    assert(read(10).count() == spec.numImages(sf))
    Oracle.assertEquivalent(read(10).agg(count(lit(1)) as "n", count("bytes_read") as "m"),
      "SELECT count(*) AS n, count(*) AS m FROM meta", "meta" -> meta)
  }

  /** Jobs, tasks and shuffle bytes of the Spark jobs `work` runs. */
  private def jobStats(work: => Unit): (Int, Int, Long) = {
    val listener = GroupTaskListener.observe(spark, "pcr-count")(work)
    val (tasks, shuffleBytes) = listener.stats
    (listener.jobCount, tasks, shuffleBytes)
  }

  test("a pushed label count and count() run one job with one task and no aggregation") {
    val df = read(10).groupBy("label").count()
    assert(pushedCount(df), plan(df))
    assert(jobStats(df.collect()) == ((1, 1, 0L)))
    var n = 0L
    assert(jobStats { n = read(10).count() } == ((1, 1, 0L)))
    assert(n == spec.numImages(sf))
  }

  test("an empty directory counts 0 and has no label group; a missing one still throws") {
    val empty = spark.read.format("pcr").load(TempDirs.create("pcr-empty").toString)
    assert(empty.count() == 0)
    assert(empty.groupBy("label").count().collect().isEmpty)
    assert(empty.groupBy("label", "id").agg(count("width")).collect().isEmpty)
    val missing = spark.read.format("pcr").load("/nonexistent-dir-xyz")
    assertThrows[Exception](missing.groupBy("label").count().collect())
    assertThrows[Exception](missing.count())
  }

  test("the pushed count decodes no image and reads exactly the record headers") {
    val df = read(10).groupBy("label").count()
    val m = scanMetrics(df)
    assert(m("imagesDecoded") == 0, m)
    assert(m("recordBytesRead") == manifests.map(r => PcrDecoder.readHeader(r.path).headerLength).sum, m)
  }

  test("explain shows the pushed aggregation and group-by columns") {
    val out = new java.io.ByteArrayOutputStream
    Console.withOut(out)(read(5).groupBy("label").count().explain())
    assert(out.toString.contains("aggregation=[COUNT(*)], groupBy=[label]"), out.toString)
    // Spark rewrites COUNT of a non-null column to COUNT(*) before pushing it.
    val desc = scanOf(read(5).groupBy("width", "label").agg(count("id"))).scan.description()
    assert(desc.contains("aggregation=[COUNT(*)], groupBy=[width, label]"), desc)
  }

  test("the scan builder accepts exactly non-distinct counts of header columns without predicates") {
    import org.apache.spark.sql.connector.expressions.{Expression, Expressions}
    import org.apache.spark.sql.connector.expressions.aggregate.{AggregateFunc, Aggregation, Count, CountStar, Sum}
    import org.apache.spark.sql.connector.expressions.filter.Predicate
    def ref(name: String) = Expressions.column(name)
    def agg(fs: AggregateFunc*)(groups: Expression*) = new Aggregation(fs.toArray, groups.toArray)
    def accepts(a: Aggregation) = {
      val builder = new datasource.PcrScanBuilder(dir, 5)
      builder.supportCompletePushDown(a) && builder.pushAggregation(a)
    }
    val counts = agg(new Count(ref("id"), false), new CountStar)(ref("scan_group"), ref("bytes_read"))
    assert(accepts(counts))
    assert(accepts(agg(new Count(ref("height"), false))()))
    assert(!accepts(agg(new Count(ref("id"), true))()))
    assert(!accepts(agg(new Count(ref("y"), false))()))
    assert(!accepts(agg(new CountStar)(ref("cb"))))
    assert(!accepts(agg(new CountStar, new Sum(ref("id"), false))(ref("label"))))
    assert(!accepts(agg(new CountStar)(new Predicate("=", Array(ref("label"), ref("id"))))))

    val builder = new datasource.PcrScanBuilder(dir, 5)
    assert(builder.pushAggregation(counts))
    val scan = builder.build()
    assert(scan.readSchema().map(f => f.name -> f.dataType) ==
      Seq("scan_group" -> IntegerType, "bytes_read" -> DoubleType, "count0" -> LongType, "count1" -> LongType))
    assert(scan.description().contains("aggregation=[COUNT(id), COUNT(*)], groupBy=[scan_group, bytes_read]"),
      scan.description())
  }

  test("other aggregates, DISTINCT and filtered counts are not pushed and still match DuckDB") {
    def notPushed(df: DataFrame): DataFrame = {
      val p = plan(df)
      assert(collect(p) { case a: HashAggregateExec => a }.nonEmpty, p)
      assert(scanOf(df).scan.isInstanceOf[datasource.PcrScan], p)
      df
    }
    Oracle.assertEquivalent(notPushed(read(5).agg(round(avg("bytes_read"), 3) as "m")),
      "SELECT round(avg(CAST(bytes_read AS DOUBLE)), 3) AS m FROM meta",
      "meta" -> read(5).select("bytes_read"))
    Oracle.assertEquivalent(notPushed(read(10).agg(countDistinct("label") as "n")),
      "SELECT count(DISTINCT label) AS n FROM meta", "meta" -> meta)
    Oracle.assertEquivalent(notPushed(read(10).agg(sum("id") as "s")),
      "SELECT sum(CAST(id AS BIGINT)) AS s FROM meta", "meta" -> meta)
    Oracle.assertEquivalent(notPushed(read(10).where(col("label") === 1).groupBy("label").count()),
      "SELECT label, count(*) AS count FROM meta WHERE CAST(label AS INT) = 1 GROUP BY label", "meta" -> meta)
  }

  test("the pixel-scan checksum query is not pushed and equals the library decoder's checksum") {
    val df = read(5).agg(count(lit(1)), bit_xor(xxhash64(col("y"), col("cb"), col("cr"))))
    assert(collect(plan(df)) { case a: HashAggregateExec => a }.nonEmpty, plan(df))
    val row = df.head()
    val images = manifests.flatMap(m => PcrDecoder.readRecord(m.path, 5))
    val checksum = images.map { d =>
      Seq(d.image.y, d.image.cb, d.image.cr).foldLeft(42L) { (h, plane) =>
        val b = plane.map(_.toByte)
        XXH64.hashUnsafeBytes(b, Platform.BYTE_ARRAY_OFFSET.toLong, b.length, h)
      }
    }.reduce(_ ^ _)
    assert(row.getLong(0) == images.size && row.getLong(1) == checksum)
  }
}
