package repro.core

import java.io.IOException
import java.util.concurrent.CountDownLatch
import java.util.concurrent.atomic.AtomicBoolean
import org.scalatest.funsuite.AnyFunSuite

/** The worker pool: every worker runs, and a failure is reported with the
  * worker's own exception only after the others have finished.
  */
class ParSpec extends AnyFunSuite {

  test("run waits for every worker, then throws the failed worker's own exception") {
    val boom = new IOException("worker 1 failed")
    val thrown = new CountDownLatch(1)
    val done = Array.fill(3)(new AtomicBoolean(false))
    val e = intercept[IOException] {
      Par.run(3) { w =>
        if (w == 1) { thrown.countDown(); throw boom }
        thrown.await()
        Thread.sleep(200L * (w + 1))
        done(w).set(true)
      }
    }
    assert(e eq boom)
    assert(done(0).get && done(2).get, "run returned before workers 0 and 2 finished")
    assert(e.getSuppressed.isEmpty)
  }

  test("run throws the lowest failed worker's exception, the others suppressed") {
    val e = intercept[IllegalStateException] {
      Par.run(4) { w => if (w != 0) throw new IllegalStateException(s"worker $w") }
    }
    assert(e.getMessage == "worker 1")
    assert(e.getSuppressed.map(_.getMessage).toSeq == Seq("worker 2", "worker 3"))
  }
}
