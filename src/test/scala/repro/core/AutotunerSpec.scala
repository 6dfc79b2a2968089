package repro.core

import repro.{SparkSpec, TempDirs}
import repro.imaging.SyntheticImages
import repro.train.{Features, GradientSimilarity, SoftmaxModel, Trainer}

class AutotunerSpec extends SparkSpec {

  test("chooseScan picks the lowest scan meeting the threshold") {
    val sims = Seq(1 -> 0.5, 2 -> 0.85, 5 -> 0.95, 10 -> 1.0)
    assert(Autotuner.chooseScan(sims, 0.8) == 2)
    assert(Autotuner.chooseScan(sims, 0.9) == 5)
    assert(Autotuner.chooseScan(sims, 0.99) == 10)
  }

  test("chooseScan falls back to the highest scan when none qualifies") {
    assert(Autotuner.chooseScan(Seq(1 -> 0.1, 2 -> 0.2), 0.8) == 2)
  }

  test("chooseScan is order independent") {
    val sims = Seq(5 -> 0.95, 1 -> 0.85, 10 -> 1.0, 2 -> 0.7)
    assert(Autotuner.chooseScan(sims, 0.8) == 1)
  }

  test("tuning schedule: warmup then periodic (paper §4.3)") {
    val cfg = AutotuneConfig(warmupEpochs = 5, tunePeriod = 20)
    assert(!(0 until 5).exists(Autotuner.shouldTune(_, cfg)))
    assert(Autotuner.shouldTune(5, cfg))
    assert(!Autotuner.shouldTune(6, cfg))
    assert(Autotuner.shouldTune(25, cfg))
    assert(Autotuner.shouldTune(45, cfg))
  }

  test("config invariants") {
    assertThrows[IllegalArgumentException](AutotuneConfig(threshold = 0.0))
    assertThrows[IllegalArgumentException](AutotuneConfig(candidateScans = Seq.empty))
    assert(AutotuneConfig().referenceScan == 10)
  }

  test("similarities: the reference scores 1, other scans the cosine of frozen gradients") {
    val dir = TempDirs.create("pcr-sims").toString
    val spec = SyntheticImages.celebahq
    PcrEncoder.encodeDataset(spark, spec, 0.02, dir) // one record: one partition, one summation order
    val scans = Seq(1, 5, 10)
    val byScan = scans.map(g =>
      g -> Trainer.featuresAt(spark, dir, g, Features.resnetLite).cache()).toMap
    val p0 = SoftmaxModel.init(2, Features.dim(Features.resnetLite, spec.width, spec.height))
    val p = SoftmaxModel.step(p0, Trainer.gradient(byScan(10), p0)._1, 1.0, 1e-4)
    val sims = Autotuner.similarities(byScan, scans, 10, p)
    assert(sims.keySet == scans.toSet)
    assert(sims(10) == 1.0)
    val (gRef, _, _) = Trainer.gradient(byScan(10), p)
    for (g <- Seq(1, 5)) {
      val (gCand, _, _) = Trainer.gradient(byScan(g), p)
      assert(sims(g) == GradientSimilarity.cosine(gRef, gCand), s"scan $g")
    }
    byScan.values.foreach(_.unpersist())
  }

  test("autotuned training starts at the reference scan and switches down") {
    val dir = TempDirs.create("pcr-tune").toString
    val spec = SyntheticImages.celebahq
    PcrEncoder.encodeDataset(spark, spec, 0.04, dir)
    val scans = Seq(1, 2, 5, 10)
    val byScan = scans.map(g =>
      g -> Trainer.featuresAt(spark, dir, g, Features.resnetLite).cache()).toMap
    val dim = Features.dim(Features.resnetLite, spec.width, spec.height)
    val cfg = AutotuneConfig(threshold = 0.8, warmupEpochs = 3, tunePeriod = 5,
      candidateScans = scans)
    val times = Map(1 -> 1.0, 2 -> 2.0, 5 -> 4.0, 10 -> 8.0)
    val (p, stats) = Autotuner.train(byScan, SoftmaxModel.init(2, dim),
      epochs = 12, lr = 1.0, l2 = 1e-4, cfg, times)
    // Warmup runs at the reference fidelity.
    assert(stats.take(3).forall(_.scanGroup == 10))
    // After warmup at least one tuning pass happened and picked a scan.
    assert(stats.drop(3).head.similarities.nonEmpty)
    assert(stats.map(_.scanGroup).distinct.nonEmpty)
    // The celebahq task is low-frequency: the tuner should leave scan 10.
    assert(stats.last.scanGroup < 10, s"tuner never left scan 10: ${stats.map(_.scanGroup)}")
    // Loss still decreases across the run.
    assert(stats.last.loss < stats.head.loss)
    assert(p.theta.exists(_ != 0.0))
    byScan.values.foreach(_.unpersist())
  }
}
