package apps

import (
	"bufio"
	"io"
	"sync"
)

// bufReaders pools the 64 KiB buffered readers kernels wrap their input in,
// so a run of many short kernels (a cksum per file) does not allocate a
// fresh 64 KiB buffer each.
var bufReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64*1024) }}

// GetBufReader returns a 64 KiB buffered reader over r. The size keeps
// byte- and line-oriented consumers issuing large device reads: bufio's
// default 4 KiB buffer would cost a device read per page. Hand it back with
// PutBufReader when the kernel is done with r.
func GetBufReader(r io.Reader) *bufio.Reader {
	br := bufReaders.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

// PutBufReader detaches br from its source and returns it to the pool. br
// must not be used afterwards.
func PutBufReader(br *bufio.Reader) {
	br.Reset(nil)
	bufReaders.Put(br)
}
