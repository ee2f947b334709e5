/**
 * @file
 * Shared plumbing for the experiment-reproduction binaries: every bench
 * regenerates one of the paper's tables or figures and prints it as a
 * text table next to the paper's reference values.
 */

#ifndef SCDCNN_BENCH_BENCH_UTIL_H
#define SCDCNN_BENCH_BENCH_UTIL_H

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include <unistd.h>

#include "sc/simd.h"

namespace scdcnn {
namespace bench {

/**
 * Unsigned environment knob with fallback. Parses strictly: the value
 * must be all digits with no trailing garbage, and only malformed or
 * out-of-range input falls back — an explicit "0" is a valid setting
 * (e.g. SCDCNN_EVAL_IMAGES=0 to skip an evaluation entirely).
 */
inline size_t
envSize(const char *name, size_t fallback)
{
    const char *v = std::getenv(name);
    if (v == nullptr || *v == '\0')
        return fallback;
    if (!std::isdigit(static_cast<unsigned char>(*v)))
        return fallback; // rejects "-1" (strtoull would wrap it)
    char *end = nullptr;
    errno = 0;
    unsigned long long parsed = std::strtoull(v, &end, 10);
    if (end == v || *end != '\0' || errno == ERANGE)
        return fallback;
    return static_cast<size_t>(parsed);
}

/** Dataset / weight-cache directory (repo-local by default). */
inline std::string
dataDir()
{
    const char *v = std::getenv("SCDCNN_DATA_DIR");
    return v != nullptr && *v != '\0' ? std::string(v) : "data";
}

/** Number of test images for SC bit-level evaluations. */
inline size_t
evalImages()
{
    return envSize("SCDCNN_EVAL_IMAGES", 60);
}

/** CPU model name from /proc/cpuinfo ("unknown" elsewhere), stripped
 *  of characters that would need escaping in a JSON string. */
inline std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const size_t colon = line.find(':');
        std::string model;
        for (size_t i = colon == std::string::npos ? line.size()
                                                   : colon + 1;
             i < line.size(); ++i)
            if (line[i] != '"' && line[i] != '\\')
                model += line[i];
        const size_t first = model.find_first_not_of(' ');
        return first == std::string::npos ? "unknown"
                                          : model.substr(first);
    }
    return "unknown";
}

/** Per-core cache size in KiB from sysconf (0 when not reported). */
inline long
cacheKib(int name)
{
    const long bytes = sysconf(name);
    return bytes > 0 ? bytes / 1024 : 0;
}

/** The SIMD tier the kernels dispatch to: "avx512" when the image-pair
 *  APC folds run, "avx2", or "scalar". */
inline const char *
simdTier()
{
    if (sc::simd::avx512Enabled())
        return "avx512";
    return sc::simd::enabled() ? "avx2" : "scalar";
}

/**
 * Write the host fingerprint object `"host": {...},` at JSON indent 2:
 * CPU model, online CPUs, L1d and L2 size, the SIMD tier the kernels
 * took, and the thread count of the pool the bench ran its
 * engine on — so every artifact says which host produced it.
 */
inline void
writeHostJson(std::FILE *f, size_t pool_threads)
{
    std::fprintf(f, "  \"host\": {\n");
    std::fprintf(f, "    \"cpu_model\": \"%s\",\n", cpuModel().c_str());
    std::fprintf(f, "    \"nproc\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "    \"l1d_kib\": %ld,\n",
                 cacheKib(_SC_LEVEL1_DCACHE_SIZE));
    std::fprintf(f, "    \"l2_kib\": %ld,\n",
                 cacheKib(_SC_LEVEL2_CACHE_SIZE));
    std::fprintf(f, "    \"simd\": \"%s\",\n", simdTier());
    std::fprintf(f, "    \"pool_threads\": %zu\n", pool_threads);
    std::fprintf(f, "  },\n");
}

/** Banner for one experiment binary. */
inline void
banner(const char *experiment_id, const char *what)
{
    std::printf("=== SC-DCNN reproduction: %s ===\n%s\n\n",
                experiment_id, what);
}

} // namespace bench
} // namespace scdcnn

#endif // SCDCNN_BENCH_BENCH_UTIL_H
