// Kernel registry and startup selection (see lcs/kernel.hpp).
#include "lcs/kernel.hpp"

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "lcs/kernel_detail.hpp"

namespace bes {

namespace {

std::vector<lcs_kernel> build_registry() {
  namespace d = lcs_detail;
  std::vector<lcs_kernel> kernels;
  kernels.push_back({"scalar", &d::scalar_signed, &d::scalar_exact,
                     &d::scalar_weighted, &d::scalar_prepared_signed,
                     &d::scalar_prepared_exact});
  // Pure uint64_t — portable to every build; the weighted recurrence has no
  // bit-parallel form (real-valued cells), so it stays scalar here.
  kernels.push_back({"bitparallel", &d::bitparallel_exact,
                     &d::bitparallel_exact, &d::scalar_weighted,
                     &d::bitparallel_prepared, &d::bitparallel_prepared});
  if (d::avx2_available()) {
    kernels.push_back({"avx2", &d::bitparallel_exact, &d::bitparallel_exact,
                       &d::avx2_weighted, &d::bitparallel_prepared,
                       &d::bitparallel_prepared});
  }
  return kernels;
}

const std::vector<lcs_kernel>& registry() {
  static const std::vector<lcs_kernel> kernels = build_registry();
  return kernels;
}

}  // namespace

std::span<const lcs_kernel> registered_lcs_kernels() { return registry(); }

const lcs_kernel* find_lcs_kernel(std::string_view name) {
  for (const lcs_kernel& k : registry()) {
    if (k.name == name) return &k;
  }
  return nullptr;
}

const lcs_kernel& active_lcs_kernel() {
  static const lcs_kernel& active = []() -> const lcs_kernel& {
    if (const char* env = std::getenv("BES_LCS_KERNEL")) {
      if (const lcs_kernel* forced = find_lcs_kernel(env)) return *forced;
      std::fprintf(stderr,
                   "BES_LCS_KERNEL=%s is not a registered kernel on this "
                   "CPU; using %.*s\n",
                   env, static_cast<int>(registry().back().name.size()),
                   registry().back().name.data());
    }
    return registry().back();
  }();
  return active;
}

}  // namespace bes
