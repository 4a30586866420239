// core::validate_config — the single source of truth for which Config field
// combinations the pipeline supports. The Reconstructor ctor and serve
// admission (Server::submit) both call this one function, so a combination
// is either legal everywhere or rejected everywhere with the same typed
// error.
#include "common/error.hpp"
#include "core/config.hpp"

namespace memxct::core {

void validate_config(const Config& config) {
  if (config.num_shards < 1)
    throw InvalidArgument("config: num_shards must be >= 1");
  if (config.buffer.partsize < 1)
    throw InvalidArgument("config: partsize must be >= 1");
  if (config.buffer.buffsize < 1 || config.buffer.buffsize > 65536)
    throw InvalidArgument(
        "config: buffsize must be in [1, 65536] (16-bit buffer addressing)");

  const bool shardable_kernel = config.kernel == KernelKind::Baseline ||
                                config.kernel == KernelKind::Buffered;
  if (is_sharded(config) && !shardable_kernel)
    throw UnsupportedConfigError(
        "--shards", "--kernel",
        "the sharded path supports the baseline and buffered kernels only");
  if (config.precision != sparse::ValueStorage::Fp32 &&
      !supports_reduced_precision(config.kernel))
    throw UnsupportedConfigError(
        "--kernel", "--precision",
        "reduced-precision (bf16/fp16) values exist for the buffered kernel "
        "only; use --precision fp32 or --kernel buffered");
}

}  // namespace memxct::core
