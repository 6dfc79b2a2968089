package repro.train

import java.nio.file.{Files, Paths}

import repro.{SparkSpec, TempDirs}
import repro.core.{GroupTaskListener, PcrDecoder, PcrEncoder, SqlExecutions}
import repro.core.datasource.PcrScan
import repro.imaging.{Rng, SyntheticImages}

class TrainerSpec extends SparkSpec {

  private lazy val pcrDir = {
    val d = TempDirs.create("pcr-train").toString
    PcrEncoder.encodeDataset(spark, SyntheticImages.celebahq, 0.05, d)
    d
  }

  private def toyData(n: Int, dim: Int, seed: Long) = {
    val rng = new Rng(seed)
    val rows = (0 until n).map { i =>
      val label = i % 2
      val x = Array.tabulate(dim)(j =>
        rng.nextGaussian() + (if (j == 0) (if (label == 0) -2.0 else 2.0) else 0.0))
      LabeledVec(i.toLong, label, x)
    }
    spark.sparkContext.parallelize(rows)
  }

  test("spark gradient equals a local computation") {
    val ds = toyData(50, 3, 1)
    val local = ds.collect()
    val rng = new Rng(2)
    val p = SoftmaxParams(2, 3, Array.fill(2 * 3 + 2)(rng.nextGaussian() * 0.1))
    val (gSpark, lossSpark, n) = Trainer.gradient(ds, p)
    val gLocal = new Array[Double](p.theta.length)
    var lossLocal = 0.0
    local.foreach(v => lossLocal += SoftmaxModel.accumulate(p, v.features, v.label, gLocal))
    gLocal.indices.foreach(i => gLocal(i) /= local.length)
    assert(n == 50)
    assert(math.abs(lossSpark - lossLocal / local.length) < 1e-10)
    gSpark.zip(gLocal).foreach { case (a, b) => assert(math.abs(a - b) < 1e-10) }
  }

  test("training reduces the loss monotonically on easy data") {
    val ds = toyData(100, 3, 3).cache()
    val (p, stats) = Trainer.train(ds, SoftmaxModel.init(2, 3), epochs = 15, lr = 0.5)
    assert(stats.head.loss > stats.last.loss)
    stats.sliding(2).foreach { case Seq(a, b) => assert(b.loss <= a.loss + 1e-9) }
    assert(Trainer.accuracy(ds, p) > 0.9)
    ds.unpersist()
  }

  test("featuresAt reads PCR data into labeled feature vectors") {
    val ds = Trainer.featuresAt(spark, pcrDir, 5, Features.resnetLite)
    val rows = ds.collect()
    assert(rows.length == SyntheticImages.celebahq.numImages(0.05))
    val expectedDim = Features.dim(Features.resnetLite, 64, 64)
    rows.foreach { v =>
      assert(v.features.length == expectedDim)
      assert(v.features.forall(f => f >= -0.5 && f <= 0.5))
      assert(v.label == SyntheticImages.label(SyntheticImages.celebahq, v.id))
    }
  }

  test("featuresAt equals arch.extract of the library decoder's images exactly") {
    val paths = PcrEncoder.listRecords(pcrDir)
    for (arch <- Seq(Features.resnetLite, Features.shufflenetLite); g <- Seq(1, 5, 10)) {
      val got = Trainer.featuresAt(spark, pcrDir, g, arch).collect().map(v => v.id -> v).toMap
      val direct = paths.flatMap(PcrDecoder.readRecord(_, g))
      assert(got.size == direct.size)
      for (d <- direct) {
        assert(got(d.id).label == d.label)
        assert(got(d.id).features.sameElements(arch.extract(d.image)), s"${arch.name} g=$g image ${d.id}")
      }
    }
  }

  test("featuresAt scans only the luma plane") {
    val first = PcrEncoder.listRecords(pcrDir).head
    val header = PcrDecoder.readHeader(first)
    // Scan group 3 holds every image's Cb AC scan: keep its length table, overwrite its scans.
    val bytes = Files.readAllBytes(Paths.get(first))
    java.util.Arrays.fill(bytes, (header.groupEndOffsets(2) + 4L * header.nImages).toInt,
      header.groupEndOffsets(3).toInt, 0xff.toByte)
    val dir = TempDirs.create("train-cb-overwritten")
    val copy = Files.write(dir.resolve(Paths.get(first).getFileName), bytes).toString
    val intact = PcrDecoder.readRecord(first, 10)
    for (arch <- Seq(Features.resnetLite, Features.shufflenetLite)) {
      val got = Trainer.featuresAt(spark, dir.toString, 10, arch).collect()
      assert(got.map(v => (v.id, v.label)).toSeq == intact.map(d => (d.id, d.label)))
      for ((v, d) <- got.zip(intact))
        assert(v.features.sameElements(arch.extract(d.image)), s"${arch.name} image ${d.id}")
    }
    intercept[IllegalArgumentException](PcrDecoder.readRecord(copy, 10))
  }

  test("featuresAt rejects a scan group below 1 when called") {
    val e = intercept[IllegalArgumentException](Trainer.featuresAt(spark, pcrDir, 0, Features.resnetLite))
    assert(e.getMessage.contains("scanGroup must be >= 1"), e)
  }

  test("featuresAt of an empty directory is an empty RDD, and its gradient has no training set") {
    val data = Trainer.featuresAt(spark, TempDirs.create("train-empty").toString, 5, Features.resnetLite)
    assert(data.getNumPartitions == 0 && data.isEmpty())
    val dim = Features.dim(Features.resnetLite, 64, 64)
    val e = intercept[IllegalArgumentException](Trainer.gradient(data, SoftmaxModel.init(2, dim)))
    assert(e.getMessage.contains("empty training set"), e)
  }

  test("featuresAt of a missing directory throws") {
    val missing = TempDirs.create("train-missing").resolve("absent").toString
    assertThrows[IllegalArgumentException](Trainer.featuresAt(spark, missing, 5, Features.resnetLite))
  }

  test("featuresAt and gradient start no SQL execution and run one task per planned partition") {
    val runs = PcrScan.packRecords(spark, pcrDir)
    assert(runs.size > 1, runs)
    val dim = Features.dim(Features.resnetLite, 64, 64)
    var n = 0L
    val sql = SqlExecutions.observe(spark) {
      val epoch = GroupTaskListener.observe(spark, "trainer-epoch") {
        n = Trainer.gradient(Trainer.featuresAt(spark, pcrDir, 5, Features.resnetLite), SoftmaxModel.init(2, dim))._3
      }
      assert(epoch.jobCount == 1 && epoch.stats == ((runs.size, 0L)), (epoch.jobCount, epoch.stats))
    }
    assert(sql.isEmpty, sql)
    assert(n == SyntheticImages.celebahq.numImages(0.05))
  }

  test("repeated epochs over the same data give a bit-identical gradient") {
    val data = Trainer.featuresAt(spark, pcrDir, 5, Features.resnetLite)
    assert(data.getNumPartitions > 1, "one partition has only one summation order")
    val rng = new Rng(4)
    val dim = Features.dim(Features.resnetLite, 64, 64)
    val p = SoftmaxParams(2, dim, Array.fill(2 * dim + 2)(rng.nextGaussian() * 0.01))
    def bits(g: Array[Double]) = g.map(java.lang.Double.doubleToRawLongBits).toSeq
    val (gUncached, lossUncached, _) = Trainer.gradient(data, p)
    data.cache()
    try {
      for (_ <- 0 until 3) {
        val (g, loss, _) = Trainer.gradient(data, p)
        assert(bits(g) == bits(gUncached))
        assert(loss == lossUncached)
      }
    } finally data.unpersist()
  }

  test("fullres features carry more dimensions than lowpass") {
    val lo = Trainer.featuresAt(spark, pcrDir, 10, Features.resnetLite).first()
    val hi = Trainer.featuresAt(spark, pcrDir, 10, Features.shufflenetLite).first()
    assert(hi.features.length == 16 * lo.features.length)
  }

  test("labelMap remaps labels for coarse tasks") {
    val ds = Trainer.featuresAt(spark, pcrDir, 10, Features.resnetLite, labelMap = _ => 0)
    assert(ds.collect().forall(_.label == 0))
  }

  test("a model trained on full-fidelity celebahq beats chance") {
    val ds = Trainer.featuresAt(spark, pcrDir, 10, Features.resnetLite).cache()
    val train = ds.filter((v: LabeledVec) => !Trainer.isTest(v.id))
    val test = ds.filter((v: LabeledVec) => Trainer.isTest(v.id))
    val dim = Features.dim(Features.resnetLite, 64, 64)
    val (p, _) = Trainer.train(train, SoftmaxModel.init(2, dim), epochs = 40, lr = 2.0)
    val acc = Trainer.accuracy(test, p)
    assert(acc > 0.75, s"test accuracy $acc")
    ds.unpersist()
  }

  test("the id-based split is deterministic and ~20% test") {
    val testFrac = (0L until 1000L).count(Trainer.isTest).toDouble / 1000
    assert(math.abs(testFrac - 0.2) < 0.01)
  }
}
