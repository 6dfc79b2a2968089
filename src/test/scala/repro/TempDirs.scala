package repro

import java.nio.file.{Files, Path}

import org.apache.commons.io.FileUtils

/** Temp directories for the datasets tests and benches write. */
object TempDirs {

  /** A new directory in `java.io.tmpdir`, deleted with its contents when the JVM exits. */
  def create(prefix: String): Path = {
    val dir = Files.createTempDirectory(prefix)
    sys.addShutdownHook(FileUtils.deleteDirectory(dir.toFile))
    dir
  }
}
