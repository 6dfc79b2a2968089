package repro.core.datasource

import java.nio.file.{Files, Paths}
import java.util

import scala.annotation.switch
import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.GenericInternalRow
import org.apache.spark.sql.connector.catalog.{SupportsRead, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.{Expression, NamedReference, Transform}
import org.apache.spark.sql.connector.expressions.aggregate.{Aggregation, Count, CountStar}
import org.apache.spark.sql.connector.metric.{CustomMetric, CustomSumMetric, CustomTaskMetric}
import org.apache.spark.sql.connector.read._
import org.apache.spark.sql.execution.datasources.FilePartition
import org.apache.spark.sql.sources.DataSourceRegister
import org.apache.spark.sql.types._
import org.apache.spark.sql.util.CaseInsensitiveStringMap

import repro.core.{PcrDecoder, PcrEncoder, RecordRead}

/** DataSourceV2 reader for PCR directories — the Spark embodiment of the
  * paper's loader (§5): a partition is a list of record files, and its
  * reader reads each record's byte *prefix* at the requested fidelity in
  * turn through [[PcrDecoder.read]], which opens the file once and decodes
  * inside the executor. [[PcrScan]] packs runs of consecutive records into
  * partitions the way Spark's file sources split files, so a scan runs
  * about one task per core.
  *
  * {{{
  * spark.read.format("pcr")
  *      .option("scanGroup", 5)   // fidelity knob; default = all groups
  *      .load(dir)
  * }}}
  *
  * Schema: `id, label, width, height, scan_group, bytes_read, y, cb, cr`
  * where `bytes_read` is the record prefix length amortized per image and
  * `y`, `cb`, `cr` are the image's planes, one unsigned byte per pixel.
  *
  * The scan reads only the columns a query uses. A query that uses none of
  * `y`, `cb`, `cr` reads each record's header and nothing else: every
  * other column is in the header (§3, Fig. 4). Otherwise each plane is
  * decoded only when it is selected: a query of `y` alone entropy-decodes
  * and reconstructs luma only, skipping the chroma scans. The bytes read
  * are the same either way, the record prefix at the requested fidelity.
  * The scan takes no predicate: Spark applies every filter, on `id` and
  * `label` too, to the rows it emits.
  *
  * `COUNT(*)` and `COUNT(column)` of header columns, grouped by header
  * columns, are answered by the scan itself ([[PcrCountScan]]): one task
  * reads every record's header and emits one row per group, so Spark runs
  * no aggregation of its own.
  */
class PcrDataSource extends TableProvider with DataSourceRegister {
  override def shortName(): String = "pcr"

  override def inferSchema(options: CaseInsensitiveStringMap): StructType = PcrTable.schema

  override def getTable(
      schema: StructType,
      partitioning: Array[Transform],
      properties: util.Map[String, String]): Table =
    new PcrTable(Option(properties.get("path")))
}

object PcrTable {
  val schema: StructType = StructType(Seq(
    StructField("id", LongType, nullable = false),
    StructField("label", IntegerType, nullable = false),
    StructField("width", IntegerType, nullable = false),
    StructField("height", IntegerType, nullable = false),
    StructField("scan_group", IntegerType, nullable = false),
    StructField("bytes_read", DoubleType, nullable = false),
    StructField("y", BinaryType, nullable = false),
    StructField("cb", BinaryType, nullable = false),
    StructField("cr", BinaryType, nullable = false)))

  /** Ordinal of `y`; this and every later column needs a decode. */
  val FirstPlane: Int = schema.fieldIndex("y")

  val AllColumns: Array[Int] = schema.indices.toArray
}

class PcrTable(tablePath: Option[String]) extends Table with SupportsRead {
  override def name(): String = s"pcr(${tablePath.getOrElse("?")})"
  override def schema(): StructType = PcrTable.schema
  override def capabilities(): util.Set[TableCapability] =
    Set(TableCapability.BATCH_READ).asJava

  override def newScanBuilder(options: CaseInsensitiveStringMap): ScanBuilder = {
    val dir = Option(options.get("path")).orElse(tablePath).getOrElse(
      throw new IllegalArgumentException("pcr source requires a path"))
    val scanGroup = Option(options.get("scanGroup")).map(_.toInt).getOrElse(Int.MaxValue)
    new PcrScanBuilder(dir, PcrScan.checkScanGroup(scanGroup))
  }
}

class PcrScanBuilder(dir: String, scanGroup: Int) extends ScanBuilder
    with SupportsPushDownRequiredColumns with SupportsPushDownAggregates {
  private var required = PcrTable.schema
  private var counted: Option[(Aggregation, Array[Int])] = None

  override def pruneColumns(requiredSchema: StructType): Unit = {
    val names = requiredSchema.fieldNames.toSet
    required = StructType(PcrTable.schema.filter(f => names(f.name)))
  }

  override def supportCompletePushDown(aggregation: Aggregation): Boolean =
    headerCountGroups(aggregation).isDefined

  override def pushAggregation(aggregation: Aggregation): Boolean = {
    counted = headerCountGroups(aggregation).map(aggregation -> _)
    counted.isDefined
  }

  /** Table ordinals of the group-by columns when `aggregation` is only
    * non-distinct `COUNT(*)`/`COUNT(column)` of header columns grouped by
    * header columns. Spark offers no aggregate over a filtered scan.
    */
  private def headerCountGroups(aggregation: Aggregation): Option[Array[Int]] = {
    def headerColumn(e: Expression): Option[Int] = e match {
      case ref: NamedReference if ref.fieldNames().length == 1 =>
        Some(PcrTable.schema.fieldNames.indexOf(ref.fieldNames()(0))).filter(i => i >= 0 && i < PcrTable.FirstPlane)
      case _ => None
    }
    val counts = aggregation.aggregateExpressions().forall {
      case _: CountStar => true
      case c: Count => !c.isDistinct && headerColumn(c.column()).isDefined
      case _ => false
    }
    val groups = aggregation.groupByExpressions().map(headerColumn)
    if (counts && groups.forall(_.isDefined)) Some(groups.flatten) else None
  }

  override def build(): Scan = counted match {
    case Some((aggregation, groups)) => new PcrCountScan(dir, scanGroup, aggregation, groups)
    case None => new PcrScan(dir, scanGroup, required)
  }
}

/** A pushed `COUNT … GROUP BY` over header columns: one partition holding
  * every record of `dir`. Its rows are the group-by columns followed by one
  * `LONG` count per aggregate.
  */
class PcrCountScan(
    dir: String,
    scanGroup: Int,
    aggregation: Aggregation,
    groups: Array[Int]) extends Scan with Batch {
  private val nCounts = aggregation.aggregateExpressions().length

  override def readSchema(): StructType = StructType(groups.map(PcrTable.schema(_)) ++
    Array.tabulate(nCounts)(i => StructField(s"count$i", LongType, nullable = false)))
  override def toBatch: Batch = this
  override def description(): String =
    s"PcrScan(dir=$dir, scanGroup=$scanGroup, " +
      s"aggregation=[${aggregation.aggregateExpressions().mkString(", ")}], " +
      s"groupBy=[${groups.map(PcrTable.schema(_).name).mkString(", ")}])"

  override def supportedCustomMetrics(): Array[CustomMetric] =
    Array(new ImagesDecodedMetric, new RecordBytesReadMetric)

  override def planInputPartitions(): Array[InputPartition] =
    Array(PcrInputPartition(PcrEncoder.listRecords(dir), scanGroup))

  override def createReaderFactory(): PartitionReaderFactory = new PcrCountReaderFactory(groups, nCounts)
}

/** Wraps the header-only reader of the `groups` columns in a [[PcrCountReader]]. */
class PcrCountReaderFactory(groups: Array[Int], nCounts: Int) extends PartitionReaderFactory {
  override def createReader(partition: InputPartition): PartitionReader[InternalRow] =
    new PcrCountReader(new PcrReaderFactory(groups).createReader(partition), groups, nCounts)
}

/** Counts the rows of `rows`, which hold the `groups` columns, per group
  * value, and emits each group's columns followed by its count `nCounts`
  * times. With no group column it emits exactly one row, 0 when there is
  * no record. Its metrics are those of `rows`.
  */
class PcrCountReader(
    rows: PartitionReader[InternalRow],
    groups: Array[Int],
    nCounts: Int) extends PartitionReader[InternalRow] {
  private var current: InternalRow = _

  private lazy val counted: Iterator[InternalRow] = {
    val counts = mutable.LinkedHashMap.empty[InternalRow, Long]
    if (groups.isEmpty) counts(InternalRow.empty) = 0L
    while (rows.next()) {
      val key = rows.get() // a new row each time, so it can be kept
      counts(key) = counts.getOrElse(key, 0L) + 1
    }
    val types = groups.map(PcrTable.schema(_).dataType)
    counts.iterator.map { case (key, n) => InternalRow.fromSeq(key.toSeq(types) ++ Seq.fill(nCounts)(n)) }
  }

  override def next(): Boolean = counted.hasNext && { current = counted.next(); true }

  override def get(): InternalRow = current

  override def currentMetricsValues(): Array[CustomTaskMetric] = rows.currentMetricsValues()

  override def close(): Unit = rows.close()
}

class PcrScan(
    dir: String,
    scanGroup: Int,
    columns: StructType) extends Scan with Batch {
  override def readSchema(): StructType = columns
  override def toBatch: Batch = this
  override def description(): String =
    s"PcrScan(dir=$dir, scanGroup=$scanGroup, columns=[${columns.fieldNames.mkString(", ")}])"

  override def supportedCustomMetrics(): Array[CustomMetric] =
    Array(new ImagesDecodedMetric, new RecordBytesReadMetric)

  override def planInputPartitions(): Array[InputPartition] =
    PcrScan.packRecords(SparkSession.active, dir).map(PcrInputPartition(_, scanGroup): InputPartition).toArray

  override def createReaderFactory(): PartitionReaderFactory =
    new PcrReaderFactory(columns.fieldNames.map(PcrTable.schema.fieldIndex))
}

object PcrScan {

  /** `scanGroup` when it is at least 1; below that a prefix read would
    * decode no scan and give flat planes, so it is rejected.
    */
  def checkScanGroup(scanGroup: Int): Int = {
    require(scanGroup >= 1, s"scanGroup must be >= 1, got $scanGroup")
    scanGroup
  }

  /** The record files of `dir` in runs, one run per task, by Spark's
    * file-source split planning (`FilePartition`): each record weighs its
    * file length plus `spark.sql.files.openCostInBytes`, and the records,
    * in `listRecords` order, fill one run until the next would take it past
    * `FilePartition.maxSplitBytes` of their total weight. Unlike Spark it
    * does not sort by size, so rows keep record order.
    */
  def packRecords(spark: SparkSession, dir: String): Seq[Seq[String]] = {
    val paths = PcrEncoder.listRecords(dir)
    val lengths = paths.map(p => Files.size(Paths.get(p)))
    val open = spark.sessionState.conf.filesOpenCostInBytes
    val maxSplit = FilePartition.maxSplitBytes(spark, lengths.map(_ + open).sum)
    val runs = mutable.ArrayBuffer.empty[Seq[String]]
    val run = mutable.ArrayBuffer.empty[String]
    var current = 0L
    for ((path, length) <- paths.zip(lengths)) {
      if (run.nonEmpty && current + length > maxSplit) { runs += run.toSeq; run.clear(); current = 0L }
      run += path
      current += length + open
    }
    if (run.nonEmpty) runs += run.toSeq
    runs.toSeq
  }
}

/** The record files one task reads, in order. */
case class PcrInputPartition(paths: Seq[String], scanGroup: Int) extends InputPartition

object PcrInputPartition {
  def apply(path: String, scanGroup: Int): PcrInputPartition = PcrInputPartition(Seq(path), scanGroup)
}

/** `columns` are table ordinals in output order. */
class PcrReaderFactory(columns: Array[Int] = PcrTable.AllColumns) extends PartitionReaderFactory {
  override def createReader(partition: InputPartition): PartitionReader[InternalRow] = {
    val p = partition.asInstanceOf[PcrInputPartition]
    new PcrPartitionReader(p.paths, p.scanGroup, columns)
  }
}

/** Reads `paths` in turn, one record at a time, through [[PcrDecoder.read]]
  * and emits one row per image, holding only `columns`. Without a plane
  * column each record's header alone is read; otherwise the selected
  * planes of every image of a record are decoded when its first row is
  * asked for. Its metrics are summed over the records read.
  */
class PcrPartitionReader(
    paths: Seq[String],
    scanGroup: Int,
    columns: Array[Int]) extends PartitionReader[InternalRow] {
  /** Codec component of each selected plane column: `y` 0, `cb` 1, `cr` 2. */
  private val planes = columns.filter(_ >= PcrTable.FirstPlane).map(_ - PcrTable.FirstPlane).distinct.sorted.toSeq
  private var current: InternalRow = _
  private var imagesDecoded = 0L
  private var fetched = 0L

  private val rows: Iterator[InternalRow] = paths.iterator.flatMap { path =>
    val record = PcrDecoder.read(path, scanGroup, planes)
    imagesDecoded += record.images.length
    fetched += record.bytesFetched
    record.header.ids.indices.iterator.map(rowOf(record, _))
  }

  private def planeBytes(p: Array[Int]): Array[Byte] = {
    val out = new Array[Byte](p.length)
    var i = 0
    while (i < p.length) { out(i) = p(i).toByte; i += 1 }
    out
  }

  private def rowOf(record: RecordRead, k: Int): InternalRow = {
    val values = new Array[Any](columns.length)
    var c = 0
    while (c < columns.length) {
      values(c) = (columns(c): @switch) match {
        case 0 => record.header.ids(k)
        case 1 => record.header.labels(k)
        case 2 => record.header.width
        case 3 => record.header.height
        case 4 => record.scanGroup
        case 5 => record.bytesPerImage
        case 6 => planeBytes(record.images(k).y)
        case 7 => planeBytes(record.images(k).cb)
        case 8 => planeBytes(record.images(k).cr)
      }
      c += 1
    }
    new GenericInternalRow(values)
  }

  override def next(): Boolean = rows.hasNext && { current = rows.next(); true }

  override def get(): InternalRow = current

  override def currentMetricsValues(): Array[CustomTaskMetric] = Array(
    TaskMetric(ImagesDecodedMetric.Name, imagesDecoded),
    TaskMetric(RecordBytesReadMetric.Name, fetched))

  override def close(): Unit = ()
}

class ImagesDecodedMetric extends CustomSumMetric {
  override def name(): String = ImagesDecodedMetric.Name
  override def description(): String = "images decoded"
}

object ImagesDecodedMetric { val Name = "imagesDecoded" }

class RecordBytesReadMetric extends CustomSumMetric {
  override def name(): String = RecordBytesReadMetric.Name
  override def description(): String = "record bytes read"
}

object RecordBytesReadMetric { val Name = "recordBytesRead" }

private final case class TaskMetric(name: String, value: Long) extends CustomTaskMetric
