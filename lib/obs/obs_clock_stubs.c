/* Thin clock_gettime wrappers returning nanoseconds as an OCaml int:
   the monotonic clock behind trace timestamps and Mlo_csp.Clock, and
   the process CPU clock behind Mlo_csp.Clock.cpu_ns.

   Returning a tagged immediate (not a boxed int64 or float) keeps a
   clock read allocation-free, so the [@@noalloc] externals that bind
   these are safe; 63-bit nanoseconds overflow after ~146 years of
   uptime, which is not a concern for either clock. */

#include <caml/mlvalues.h>
#include <time.h>

CAMLprim value mlo_obs_monotonic_ns(value unit)
{
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat) ts.tv_sec * 1000000000 + ts.tv_nsec);
}

CAMLprim value mlo_obs_cputime_ns(value unit)
{
  struct timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return Val_long((intnat) ts.tv_sec * 1000000000 + ts.tv_nsec);
}
