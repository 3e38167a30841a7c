// Package mpi implements a simulated MPI runtime used as the substrate for
// fault-injection studies of collective communications.
//
// Ranks are goroutines; point-to-point messages travel through per-rank
// inboxes, guarded by one lock per world, with (source, tag) matching;
// collectives are implemented with the classic tree/ring/dissemination
// algorithms on top of point-to-point, so a corrupted argument on a single
// rank perturbs the communication schedule exactly the way it would in a
// real MPI library.
//
// The runtime deliberately reproduces the failure surface of a production
// MPI implementation:
//
//   - Input parameters (count, datatype, op, root) are validated and raise
//     an MPIError, mirroring MPI_ERRORS_ARE_FATAL aborts.
//   - Communicator handles are dereferenced without validation, like the
//     raw pointers they are in Open MPI; a corrupted handle crashes the
//     rank with a simulated segmentation fault.
//   - Buffers carry explicit bounds; any access outside them panics with a
//     SegFault value, the moral equivalent of the MMU fault a corrupted
//     count triggers on real hardware.
//   - Mismatched counts or roots across ranks derail the message schedule
//     and usually deadlock; the rank whose wait leaves every surviving rank
//     blocked sees it under the world's lock and cancels the run on the
//     spot, which the classifier reports as INF_LOOP.
//
// The package is self-contained and uses only the standard library.
package mpi
