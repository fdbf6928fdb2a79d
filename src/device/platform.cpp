#include "src/device/platform.hpp"

#include <stdexcept>

namespace summagen::device {

double Platform::theoretical_peak_flops() const {
  double sum = 0.0;
  for (const auto& d : devices) sum += d.peak_flops;
  return sum;
}

std::vector<AbstractProcessor> Platform::processors(
    blas::GemmOptions numeric_kernel) const {
  std::vector<AbstractProcessor> out;
  out.reserve(devices.size());
  for (const auto& d : devices) out.emplace_back(d, numeric_kernel);
  return out;
}

std::vector<SpeedFunction> Platform::profiles(const std::vector<double>& edges,
                                              bool contended,
                                              Interpolation interp) const {
  std::vector<SpeedFunction> out;
  out.reserve(devices.size());
  for (const auto& ap : processors()) {
    out.push_back(ap.profile(edges, contended, interp));
  }
  return out;
}

std::vector<double> Platform::constant_relative_speeds(double lo_edge,
                                                       double hi_edge) const {
  if (devices.empty()) throw std::logic_error("Platform: no devices");
  std::vector<double> mean_speed;
  const int kSamples = 32;
  for (const auto& ap : processors()) {
    double acc = 0.0;
    for (int i = 0; i <= kSamples; ++i) {
      const double e = lo_edge + (hi_edge - lo_edge) * i / kSamples;
      const auto x = static_cast<std::int64_t>(e);
      const KernelCost cost = ap.kernel_cost(x, x, x, /*contended=*/true);
      acc += static_cast<double>(blas::gemm_flops(x, x, x)) / cost.total_s();
    }
    mean_speed.push_back(acc / (kSamples + 1));
  }
  const double base = mean_speed.front();
  for (double& s : mean_speed) s /= base;
  return mean_speed;
}

Platform Platform::hclserver1() {
  Platform p;
  p.name = "HCLServer1 (simulated)";
  p.static_power_w = 230.0;
  // Intra-node MPI between abstract processors (shared memory transport).
  p.mpi_link = trace::HockneyParams{5.0e-6, 1.0 / 7.0e9};

  DeviceSpec cpu;
  cpu.name = "AbsCPU (Intel Haswell E5-2670V3, 22 cores)";
  cpu.kind = DeviceKind::kMulticoreCpu;
  cpu.peak_flops = 0.65e12;
  cpu.asymptotic_efficiency = 0.922;
  cpu.contention_factor = 0.90;  // shares memory/QPI with the host cores
  cpu.ramp_edge = 256.0;
  cpu.variation_amplitude = 0.08;
  cpu.variation_decays = true;
  cpu.noise_seed = 11;
  cpu.memory_bytes = 64LL << 30;
  cpu.needs_staging = false;
  cpu.dynamic_power_w = 185.0;
  cpu.comm_power_w = 25.0;
  cpu.cores_description = "2 sockets x 12 cores (22 used by the kernel)";
  cpu.memory_description = "64 GB DDR4";
  cpu.bandwidth_description = "68 GB/s";

  DeviceSpec gpu;
  gpu.name = "AbsGPU (Nvidia K40c + host core)";
  gpu.kind = DeviceKind::kGpu;
  gpu.peak_flops = 1.25e12;
  gpu.asymptotic_efficiency = 0.965;
  gpu.contention_factor = 0.96;  // dedicated host core, PCIe mostly isolated
  gpu.ramp_edge = 2048.0;
  gpu.variation_amplitude = 0.10;
  gpu.variation_decays = true;
  gpu.ooc_extra_variation = 0.05;
  gpu.noise_seed = 23;
  gpu.memory_bytes = 12LL << 30;
  gpu.needs_staging = true;
  gpu.pcie = trace::HockneyParams{10.0e-6, 1.0 / 10.0e9};
  gpu.dynamic_power_w = 155.0;
  gpu.comm_power_w = 20.0;
  gpu.cores_description = "2880 CUDA cores";
  gpu.memory_description = "12 GB GDDR5";
  gpu.bandwidth_description = "288 GB/s";

  DeviceSpec phi;
  phi.name = "AbsXeonPhi (Intel Xeon Phi 3120P + host core)";
  phi.kind = DeviceKind::kManycoreCoprocessor;
  phi.peak_flops = 0.60e12;
  phi.asymptotic_efficiency = 0.94;
  phi.contention_factor = 0.94;
  phi.ramp_edge = 1400.0;
  // Paper: smooth up to ~13760, maximal variations for problem sizes in
  // [12800^2, 19200^2], increasing again beyond 13824^2 where out-of-card
  // computation kicks in. The Phi's zone in a 3-processor PMM is ~25% of
  // the matrix, so those problem sizes correspond to zone edges of about
  // [6400, 9600] (edge = sqrt(area) = 0.5 N); the boost window lives in
  // zone-edge coordinates. The OOC knee emerges from memory_bytes below.
  phi.variation_amplitude = 0.02;
  phi.variation_decays = false;
  phi.variation_boost = 0.22;
  phi.variation_lo_edge = 6400.0;
  phi.variation_hi_edge = 9600.0;
  phi.ooc_extra_variation = 0.05;
  phi.ooc_overlap = 0.90;
  phi.noise_seed = 37;
  phi.memory_bytes = 6LL << 30;
  phi.needs_staging = true;
  phi.pcie = trace::HockneyParams{15.0e-6, 1.0 / 6.0e9};
  phi.dynamic_power_w = 145.0;
  phi.comm_power_w = 20.0;
  phi.cores_description = "57 cores";
  phi.memory_description = "6 GB GDDR5";
  phi.bandwidth_description = "240 GB/s";

  p.devices = {cpu, gpu, phi};
  return p;
}

Platform Platform::homogeneous(int nprocs, double flops_per_s) {
  if (nprocs < 1) throw std::invalid_argument("homogeneous: nprocs < 1");
  Platform p;
  p.name = "homogeneous-" + std::to_string(nprocs);
  p.mpi_link = trace::HockneyParams{5.0e-6, 1.0 / 7.0e9};
  for (int i = 0; i < nprocs; ++i) {
    DeviceSpec d;
    d.name = "P";
    d.name += std::to_string(i);
    d.peak_flops = flops_per_s;
    d.asymptotic_efficiency = 1.0;
    d.contention_factor = 1.0;
    d.ramp_edge = 1e-6;  // effectively no ramp
    d.variation_amplitude = 0.0;
    d.memory_bytes = 1LL << 40;
    d.needs_staging = false;
    p.devices.push_back(d);
  }
  return p;
}

Platform Platform::synthetic(const std::vector<double>& speeds,
                             double unit_flops) {
  if (speeds.empty()) throw std::invalid_argument("synthetic: no speeds");
  Platform p;
  p.name = "synthetic";
  p.mpi_link = trace::HockneyParams{5.0e-6, 1.0 / 7.0e9};
  int i = 0;
  for (double s : speeds) {
    if (s <= 0.0) throw std::invalid_argument("synthetic: non-positive speed");
    DeviceSpec d;
    d.name = "P";
    d.name += std::to_string(i++);
    d.peak_flops = s * unit_flops;
    d.asymptotic_efficiency = 1.0;
    d.contention_factor = 1.0;
    d.ramp_edge = 1e-6;
    d.variation_amplitude = 0.0;
    d.memory_bytes = 1LL << 40;
    d.needs_staging = false;
    p.devices.push_back(d);
  }
  return p;
}

Platform Platform::cluster(const Platform& node_platform, int nodes,
                           trace::HockneyParams internode) {
  if (nodes < 1) throw std::invalid_argument("cluster: nodes < 1");
  if (node_platform.nprocs() < 1) {
    throw std::invalid_argument("cluster: empty node platform");
  }
  Platform p;
  p.name = node_platform.name + " x" + std::to_string(nodes);
  p.mpi_link = node_platform.mpi_link;
  p.internode_link = internode;
  p.static_power_w = node_platform.static_power_w * nodes;
  for (int node = 0; node < nodes; ++node) {
    for (const DeviceSpec& d : node_platform.devices) {
      DeviceSpec copy = d;
      copy.name += " @node" + std::to_string(node);
      // Distinct noise streams per node so replicated devices do not dip
      // in lockstep.
      copy.noise_seed = d.noise_seed + 101 * static_cast<std::uint64_t>(node);
      p.devices.push_back(std::move(copy));
      p.node_of.push_back(node);
    }
  }
  return p;
}

}  // namespace summagen::device
