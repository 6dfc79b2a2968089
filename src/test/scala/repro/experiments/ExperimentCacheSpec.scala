package repro.experiments

import repro.{SparkSpec, TempDirs}
import repro.core.{AutotuneConfig, PcrEncoder}
import repro.imaging.SyntheticImages
import repro.train.Features

/** The training harnesses release every cache they make: a run leaves as
  * many persisted RDDs behind as there were before it.
  */
class ExperimentCacheSpec extends SparkSpec {

  private val spec = SyntheticImages.celebahq
  private val arch = Features.resnetLite

  private lazy val (pcrDir, manifests) = {
    val dir = TempDirs.create("pcr-caches").toString
    (dir, PcrEncoder.encodeDataset(spark, spec, 0.02, dir))
  }

  private def assertReleasesCaches(work: => Unit): Unit = {
    manifests
    val before = spark.sparkContext.getPersistentRDDs.size
    work
    val after = spark.sparkContext.getPersistentRDDs.size
    assert(after == before)
  }

  test("TrainGrid.run releases its caches") {
    assertReleasesCaches(TrainGrid.run(spark, spec, pcrDir, manifests, arch,
      TrainGrid.defaultTask(spec), scans = Seq(1, 10), epochs = 2))
  }

  test("AutotuneExp.similarityTrace releases its caches") {
    assertReleasesCaches(AutotuneExp.similarityTrace(spark, spec, pcrDir, arch,
      scans = Seq(1, 10), epochs = 2, measureEvery = 1))
  }

  test("AutotuneExp.compare releases its caches") {
    assertReleasesCaches(AutotuneExp.compare(spark, spec, pcrDir, manifests, arch,
      epochs = 2, cfg = AutotuneConfig(warmupEpochs = 1, tunePeriod = 1)))
  }
}
