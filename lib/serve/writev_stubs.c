/* write(2) binding for the serve io loop.
 *
 * The OCaml side passes one (bytes, pos, len) slice of a connection's
 * out queue; the stub writes it straight from the OCaml heap. Sockets
 * are non-blocking, so the call never blocks and the stub can be
 * [@@noalloc]: it allocates nothing on the OCaml heap, raises nothing,
 * and keeps the runtime lock (so the bytes cannot move under it).
 * Errors come back in-band as -errno so the OCaml wrapper can classify
 * EAGAIN/EPIPE/... without an exception allocation on the hot path.
 */

#include <caml/mlvalues.h>
#include <unistd.h>
#include <errno.h>

CAMLprim value st_serve_write(value v_fd, value v_buf, value v_pos,
                              value v_len)
{
  ssize_t w = write(Int_val(v_fd), Bytes_val(v_buf) + Long_val(v_pos),
                    (size_t)Long_val(v_len));
  if (w < 0) return Val_long(-(long)errno);
  return Val_long((long)w);
}

/* errno values are platform-specific; export the ones the io loop
 * classifies. Index-based so one noalloc external covers them all. */
CAMLprim value st_serve_errno_const(value v_idx)
{
  switch (Int_val(v_idx)) {
  case 0: return Val_int(EAGAIN);
  case 1: return Val_int(EWOULDBLOCK);
  case 2: return Val_int(EINTR);
  case 3: return Val_int(EPIPE);
  case 4: return Val_int(ECONNRESET);
  default: return Val_int(0);
  }
}
