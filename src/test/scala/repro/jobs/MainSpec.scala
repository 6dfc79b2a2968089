package repro.jobs

import java.nio.file.{Files, Paths}

import scala.jdk.CollectionConverters._
import scala.util.Using

import repro.{SparkSpec, TempDirs}
import repro.core.{PcrDecoder, PcrEncoder, RecordManifest}
import repro.experiments.Table3Datasets
import repro.imaging.SyntheticImages

/** The experiment dispatcher: its names, its errors, and that it runs an
  * experiment on a session it is given without stopping that session.
  */
class MainSpec extends SparkSpec {

  test("the experiments are the paper's tables and figures, in order") {
    assert(Main.experiments.keys.toSeq == Seq(
      "Table1Sizes", "Table2Decode", "Table3Datasets", "Fig5Throughput", "Fig16Bandwidth",
      "Fig22Encoding", "Fig24Reader", "TimeToAccuracy", "Autotune", "MssimReport", "Sec7Ssd"))
  }

  test("an unknown experiment is rejected with the list of valid names") {
    val e = intercept[IllegalArgumentException] {
      Main.run(() => fail("no session should be requested"), "Table4", Seq.empty)
    }
    assert(e.getMessage.contains("Table4"))
    for (name <- Main.experiments.keys) assert(e.getMessage.contains(name), e.getMessage)
  }

  test("Table3Datasets renders one row per dataset written under its output dir") {
    val out = TempDirs.create("main-table3").toString
    val table = Main.run(() => spark, "Table3Datasets", Seq("0.02", out))
    val fromDisk = SyntheticImages.all.map { spec =>
      val records = PcrEncoder.listRecords(s"$out/${spec.name}")
      Table3Datasets.fromManifests(spec, records.zipWithIndex.map { case (path, i) =>
        val h = PcrDecoder.readHeader(path)
        RecordManifest(path, i.toLong, h.nImages, Files.size(Paths.get(path)), h.groupEndOffsets.toSeq)
      })
    }
    assert(table.linesIterator.size == 2 + SyntheticImages.all.size, table)
    assert(table == Table3Datasets.render(fromDisk))
    assert(fromDisk.forall(_.images > 0))
  }

  test("run leaves the session it is given active") {
    Main.run(() => spark, "Table3Datasets", Seq("0.01", TempDirs.create("main-active").toString))
    assert(!spark.sparkContext.isStopped)
    assert(spark.range(3).count() == 3)
  }

  test("run deletes the temp dirs its experiment made") {
    val tmp = Paths.get(System.getProperty("java.io.tmpdir"))
    def fig24Dirs = Using.resource(Files.list(tmp))(
      _.iterator.asScala.map(_.getFileName.toString).filter(_.startsWith("pcr-fig24")).toSet)
    val before = fig24Dirs
    Main.run(() => spark, "Fig24Reader", Seq("0.02"))
    assert(fig24Dirs.diff(before).isEmpty)
  }

  test("MssimReport runs without a Spark session") {
    val table = Main.run(() => fail("MssimReport asked for a session"), "MssimReport", Seq("2"))
    assert(table.linesIterator.size == 2 + SyntheticImages.all.size, table)
  }
}
