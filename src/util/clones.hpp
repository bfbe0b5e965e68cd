// Function multiversioning for the hot kernels (DESIGN.md §11).
//
// GCC on x86-64 ELF targets builds a function marked
// [[PPDC_TARGET_CLONES("avx", "default") ...]] once per listed target and
// picks the clone at load time through an ifunc; other compilers build the
// plain function. So do ThreadSanitizer builds: TSan instruments the clone
// resolver, which runs before its runtime is up, and the program crashes
// at start. The macro expands to the attribute and a trailing comma, so it
// opens an attribute list.
#pragma once

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    defined(__ELF__) && !defined(__SANITIZE_THREAD__)
#define PPDC_TARGET_CLONES(...) gnu::target_clones(__VA_ARGS__),
#else
#define PPDC_TARGET_CLONES(...)
#endif
