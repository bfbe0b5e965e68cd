// Function multiversioning for the hot kernels (DESIGN.md §11).
//
// GCC on x86-64 ELF targets builds a function marked
// [[PPDC_TARGET_CLONES("avx", "default") ...]] once per listed target and
// picks the clone at load time through an ifunc; other compilers build the
// plain function. So do ThreadSanitizer builds: TSan instruments the clone
// resolver, which runs before its runtime is up, and the program crashes
// at start. The macro expands to the attribute and a trailing comma, so it
// opens an attribute list.
//
// A kernel lists "arch=x86-64-v4" (AVX-512), then "arch=x86-64-v3"
// (AVX2) or "avx", then "default": the widest tier the CPU has runs.
// Every tier must give the baseline clone's bits. Kernels that only add
// and compare (the stroll level kernels) get them from any instruction
// set and take "arch=x86-64-v4", "arch=x86-64-v3", "default". Kernels
// that multiply and add (the cost model's attraction kernels) take
// "arch=x86-64-v4", "avx", "default", and their file is built with
// -ffp-contract=off: both x86-64 levels include FMA, and a contracted
// multiply-add rounds once where the baseline clone rounds twice.
#pragma once

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    defined(__ELF__) && !defined(__SANITIZE_THREAD__)
#define PPDC_TARGET_CLONES(...) gnu::target_clones(__VA_ARGS__),
#else
#define PPDC_TARGET_CLONES(...)
#endif

// The tiers of kernels that only add, compare and take maxima or minima
// (the stroll level kernels in core/stroll_dp.cpp, the AllPairs summary
// scans in graph/apsp.cpp): every instruction set gives their bits.
#define PPDC_LEVEL_KERNEL_CLONES \
  PPDC_TARGET_CLONES("arch=x86-64-v4", "arch=x86-64-v3", "default")
