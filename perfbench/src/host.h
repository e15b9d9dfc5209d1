// Host context stamped on every result: core counts, FKD_NUM_THREADS, build
// type, peak RSS, and a spin-scaling probe that detects a contended host
// (4 vCPUs that deliver one core's worth of work).
#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <string>

namespace perfbench {

/// CPUs this process may run on (what `nproc` prints).
unsigned AffinityCpuCount();

/// Sustained spin throughput of `threads` threads over that of one thread:
/// about `threads` on a quiet host, about 1 when someone else holds the
/// cores. The parallel spin ramps for 1.3 s before it is measured,
/// because a hypervisor may run idle vCPUs on one core's worth of time and
/// spread them only after load persists; a short burst would read 1 there.
double SpinScaling(unsigned threads);

/// A host is contended when the probe delivers under three quarters of the
/// cores it should.
bool Contended(double scaling, unsigned threads);

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// JSON fields (no braces) naming the host and build of a run.
std::string HostJsonFields();

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
