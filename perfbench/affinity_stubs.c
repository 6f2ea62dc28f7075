/* CPU affinity for the load generator: which CPUs the process may use, and
   pinning a process (the generator itself or a daemon) to one of them. */

#define _GNU_SOURCE
#include <sched.h>
#include <sys/types.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>

/* The CPUs the calling process may run on, in ascending order. */
value perfbench_affinity_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal2(list, cell);
  cpu_set_t set;
  list = Val_emptylist;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; cpu--) {
      if (CPU_ISSET(cpu, &set)) {
        cell = caml_alloc_small(2, 0);
        Field(cell, 0) = Val_int(cpu);
        Field(cell, 1) = list;
        list = cell;
      }
    }
  }
  CAMLreturn(list);
}

/* Pin process [pid] (0: the caller) to [cpu]; false if the kernel refused
   (the process has exited, or the CPU is not allowed). */
value perfbench_affinity_pin(value pid, value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity((pid_t)Int_val(pid), sizeof set, &set) == 0);
}
