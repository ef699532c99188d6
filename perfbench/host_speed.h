#ifndef PERFBENCH_HOST_SPEED_H_
#define PERFBENCH_HOST_SPEED_H_

/**
 * @file
 * Host-contention calibration.
 *
 * Other tenants of a shared host slow every instruction stream for
 * seconds at a time, by up to about 2x, so identical simulator runs in
 * two benchmark processes can differ by that much, and no statistic
 * over one process's repetitions removes a slow period that lasts the
 * whole process.  The benchmark therefore brackets every timed
 * interval with two runs of a fixed calibration kernel and rescales
 * the interval by the kernel's slowdown against its time on a quiet
 * host.  The kernel does simulator-like work (an event heap, a hash
 * map of live entries, small allocations) and lives here, not in
 * src/, so a change to the simulator never changes it.
 */

namespace perfbench {

/** Kernel seconds on the quiet reference host (a 4-vCPU Intel Xeon
 *  VM at 2.1 GHz, Release build). */
constexpr double kReferenceKernelSeconds = 0.018;

/** Host seconds one run of the calibration kernel takes now. */
double kernelSeconds();

/** Factor that turns a host time measured between kernel runs of
 *  @p before and @p after seconds into the time it would have taken
 *  on the reference host. */
double referenceScale(double before, double after);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPEED_H_
