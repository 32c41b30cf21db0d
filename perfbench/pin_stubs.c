/* CPU placement for the benchmark's processes.  A process pins itself
   before it creates any thread, so every thread it starts inherits the
   mask. */
#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>

value perfbench_pin_self(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}

/* The CPUs this process may run on, in ascending order. */
value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal2(list, cell);
  cpu_set_t set;
  int cpu;
  (void)unit;
  list = Val_emptylist;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (cpu = CPU_SETSIZE - 1; cpu >= 0; cpu--) {
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
