/* wait4(2) for the benchmark harness: OCaml's Unix library reports a
   child's exit status but not its resource usage, and the benchmark
   needs each child's peak resident set size (ru_maxrss). */

#define CAML_NAME_SPACE
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>
#include <sys/resource.h>
#include <sys/wait.h>

/* bench_wait4 pid nohang -> (pid, code, maxrss_kib); pid is 0 when
   [nohang] is set and the child is still running.  code is the exit
   status, or -signal for a child killed by a signal. */
CAMLprim value bench_wait4(value vpid, value vnohang)
{
  CAMLparam2(vpid, vnohang);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t pid = Int_val(vpid);
  int flags = Bool_val(vnohang) ? WNOHANG : 0;
  pid_t r;
  caml_enter_blocking_section();
  r = wait4(pid, &status, flags, &ru);
  caml_leave_blocking_section();
  if (r == -1) caml_uerror("wait4", Nothing);
  res = caml_alloc_tuple(3);
  Store_field(res, 0, Val_int(r));
  Store_field(res, 1,
              Val_int(r == 0 ? 0
                      : WIFEXITED(status) ? WEXITSTATUS(status)
                      : WIFSIGNALED(status) ? -WTERMSIG(status) : -1));
  Store_field(res, 2, Val_long(r == 0 ? 0 : ru.ru_maxrss));
  CAMLreturn(res);
}
