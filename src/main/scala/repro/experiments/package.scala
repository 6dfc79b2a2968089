package repro

package object experiments {

  /** Run `work` once and return its result with its wall time in seconds. */
  def timed[A](work: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = work
    (a, (System.nanoTime() - t0) / 1e9)
  }
}
