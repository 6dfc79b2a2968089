package repro.jobs

import java.nio.file.{Files, Path}

import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.util.DynamicVariable

import org.apache.commons.io.FileUtils
import org.apache.spark.sql.SparkSession

import repro.core.{BaselineFormats, PcrEncoder, ScanSizes}
import repro.experiments._
import repro.imaging.{DatasetSpec, SyntheticImages}
import repro.train.Features

/** Runs one paper experiment and prints its table:
  * `Main <experiment> [args]`, e.g. `Main Table1Sizes 0.1`.
  *
  * Each experiment takes optional positional args; `sf` (the dataset
  * scale factor) defaults to 0.1. A Spark session is started only for
  * experiments that ask for one, and `main` stops it at the end.
  */
object Main {

  /** Output from a session supplier and args; Spark-free experiments never call the supplier. */
  type Experiment = (() => SparkSession, Seq[String]) => String

  private def sf(args: Seq[String]): Double = args.headOption.map(_.toDouble).getOrElse(0.1)

  /** Temp dirs made by the experiment [[run]] is running; it deletes them when it returns. */
  private val tempDirs = new DynamicVariable(mutable.Buffer.empty[Path])

  private def tempDir(prefix: String): String = {
    val dir = Files.createTempDirectory(prefix)
    tempDirs.value += dir
    dir.toString
  }

  /** Images per dataset for the single-process experiments; 128×128 datasets get half. */
  private def perDataset(spec: DatasetSpec, n: Int): Int = if (spec.width >= 128) n / 2 else n

  private val models = Seq(Features.resnetLite, Features.shufflenetLite)

  val experiments: ListMap[String, Experiment] = ListMap(
    // Table 1: per-scan size-reduction factors and mean image size. Args: [sf]
    "Table1Sizes" -> { (spark, args) =>
      val base = tempDir("pcr-table1")
      Table1Sizes.render(SyntheticImages.all.map(spec => ScanSizes.fromRecords(spec.name,
        PcrEncoder.encodeDataset(spark(), spec, sf(args), s"$base/pcr-${spec.name}"),
        BaselineFormats.writeTfRecordLike(spark(), spec, sf(args), s"$base/tfr-${spec.name}"))))
    },
    // Table 2: single-core decode rates per scan vs. baseline. Args: [imagesPerDataset]
    "Table2Decode" -> { (_, args) =>
      val n = args.headOption.map(_.toInt).getOrElse(200)
      Table2Decode.render(SyntheticImages.all.map(spec =>
        Table2Decode.measure(spec, perDataset(spec, n))))
    },
    // Table 3: record/image/size statistics of every encoded dataset. Args: [sf] [outDir]
    "Table3Datasets" -> { (spark, args) =>
      val out = args.lift(1).getOrElse(tempDir("pcr-table3"))
      Table3Datasets.render(SyntheticImages.all.map(spec => Table3Datasets.fromManifests(spec,
        PcrEncoder.encodeDataset(spark(), spec, sf(args), s"$out/${spec.name}"))))
    },
    // Figs 5/25: cluster training rates per scan vs. TFRecord and File-per-Image. Args: [sf]
    "Fig5Throughput" -> { (spark, args) =>
      val spec = SyntheticImages.imagenet
      val base = tempDir("pcr-fig5")
      val manifests = PcrEncoder.encodeDataset(spark(), spec, sf(args), s"$base/pcr")
      val tfr = BaselineFormats.writeTfRecordLike(spark(), spec, sf(args), s"$base/tfr")
      models.map { arch =>
        s"== ${arch.name} ==\n" + Fig5Throughput.render(
          Fig5Throughput.run(spec, manifests, tfr, arch.imagesPerSecPerNode))
      }.mkString("\n")
    },
    // Fig 16: token-bucket bandwidth sweep per scan and model. Args: [sf]
    "Fig16Bandwidth" -> { (spark, args) =>
      val spec = SyntheticImages.imagenet
      val manifests = PcrEncoder.encodeDataset(spark(), spec, sf(args), tempDir("pcr-fig16"))
      models.map { arch =>
        s"== ${arch.name} ==\n" + Fig16Bandwidth.render(Fig16Bandwidth.run(manifests,
          spec.imagesPerRecord, Fig5Throughput.PaperNodes * arch.imagesPerSecPerNode))
      }.mkString("\n")
    },
    // Fig 22: PCR encode cost vs. static re-encodes at four qualities. Args: [sf]
    "Fig22Encoding" -> { (spark, args) =>
      val base = tempDir("pcr-fig22")
      Fig22Encoding.render(SyntheticImages.all.map(Fig22Encoding.measure(spark(), _, sf(args), base)))
    },
    // Fig 24: raw reader throughput per scan group (no decode). Args: [sf]
    "Fig24Reader" -> { (spark, args) =>
      val dir = tempDir("pcr-fig24")
      PcrEncoder.encodeDataset(spark(), SyntheticImages.imagenet, sf(args), dir)
      Fig24Reader.render(Fig24Reader.run(dir))
    },
    // Figs 7/10/11: test accuracy and simulated time per scan for every
    // dataset and model, then the Cars task-coarsening variants. Args: [sf] [epochs]
    "TimeToAccuracy" -> { (spark, args) =>
      val epochs = args.lift(1).map(_.toInt).getOrElse(50)
      val base = tempDir("pcr-tta")
      val encoded = SyntheticImages.all.map { spec =>
        val dir = s"$base/${spec.name}"
        spec.name -> ((dir, PcrEncoder.encodeDataset(spark(), spec, sf(args), dir)))
      }.toMap
      val rows = for (spec <- SyntheticImages.all; arch <- models) yield {
        val (dir, manifests) = encoded(spec.name)
        TrainGrid.run(spark(), spec, dir, manifests, arch, TrainGrid.defaultTask(spec), epochs = epochs)
      }
      val cars = SyntheticImages.cars
      val (carsDir, carsManifests) = encoded(cars.name)
      val tasks = Seq(
        TrainGrid.Task("make-only", 4, SyntheticImages.makeLabel(cars, _)),
        TrainGrid.Task("is-make-0", 2, SyntheticImages.isMakeZeroLabel(cars, _)))
      val coarse = tasks.flatMap(t => TrainGrid.run(spark(), cars, carsDir, carsManifests,
        Features.shufflenetLite, t, epochs = epochs, lr = 1.0))
      TrainGrid.render(rows.flatten) + "\n" + TrainGrid.render(coarse)
    },
    // Figs 6/14: gradient-similarity trace and autotuned vs. static runs. Args: [sf]
    "Autotune" -> { (spark, args) =>
      val spec = SyntheticImages.ham10000
      val dir = tempDir("pcr-autotune")
      val manifests = PcrEncoder.encodeDataset(spark(), spec, sf(args), dir)
      Seq("== gradient similarity (Fig 6) ==",
        AutotuneExp.renderTrace(AutotuneExp.similarityTrace(
          spark(), spec, dir, Features.shufflenetLite, lr = 1.0)),
        "== autotuned vs static (Fig 14) ==",
        AutotuneExp.renderRuns(AutotuneExp.compare(
          spark(), spec, dir, manifests, Features.shufflenetLite, lr = 1.0))).mkString("\n")
    },
    // Figs 13/23: mean MSSIM per scan group for each dataset. Args: [imagesPerDataset]
    "MssimReport" -> { (_, args) =>
      val n = args.headOption.map(_.toInt).getOrElse(24)
      MssimExp.render(SyntheticImages.all.map(spec => MssimExp.measure(spec, perDataset(spec, n))))
    },
    // §7: single-node SSD generalization. Args: [sf]
    "Sec7Ssd" -> { (spark, args) =>
      val spec = SyntheticImages.imagenet
      val base = tempDir("pcr-sec7")
      val manifests = PcrEncoder.encodeDataset(spark(), spec, sf(args), s"$base/pcr")
      val tfr = BaselineFormats.writeTfRecordLike(spark(), spec, sf(args), s"$base/tfr")
      Sec7Ssd.render(Sec7Ssd.run(manifests, tfr.map(_._2), spec.imagesPerRecord))
    },
  )

  /** Run experiment `name` and return its output. The session `spark`
    * supplies is left running, and the temp dirs the experiment made are
    * deleted; an output dir given in `args` is kept.
    */
  def run(spark: () => SparkSession, name: String, args: Seq[String]): String = {
    val experiment = experiments.getOrElse(name, throw new IllegalArgumentException(
      s"unknown experiment '$name'; expected one of ${experiments.keys.mkString(", ")}"))
    val made = mutable.Buffer.empty[Path]
    try tempDirs.withValue(made)(experiment(spark, args))
    finally made.foreach(dir => FileUtils.deleteDirectory(dir.toFile))
  }

  def main(args: Array[String]): Unit = {
    val name = args.headOption.getOrElse("")
    lazy val spark = SparkSession.builder().appName(s"pcr-$name").getOrCreate()
    var started = false
    try println(run(() => { started = true; spark }, name, args.toSeq.drop(1)))
    finally if (started) spark.stop()
  }
}
