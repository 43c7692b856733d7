package server

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
)

// Response encoding. Every JSON body the daemon and the router send is
// indented exactly as json.MarshalIndent(v, "", "  ") would indent it,
// plus json.Encoder's trailing newline, but in one streaming pass: the
// encoder's compact output is re-spaced byte by byte through a fixed
// buffer on its way to the wire. encoding/json's own indent mode
// instead re-scans the whole compact document through its validating
// scanner into a second whole-body buffer, which dominated the cost of
// a large fleet report.
//
// The indenter trusts its input to be encoding/json output — valid,
// compact JSON with a trailing newline — so it tracks only string and
// escape state, nesting depth, and whether a '{' or '[' was just
// opened (an empty object or array stays "{}" or "[]").

// indentBufSize is the indenter's output buffer: bodies larger than it
// reach the writer in chunks of this size.
const indentBufSize = 32 << 10

// indentRun is a newline followed by the spaces of 32 nesting levels;
// deeper lines are written in several pieces.
var indentRun = []byte("\n                                                                ")

var colonSpace = []byte(": ")

// indentWriter re-spaces a compact JSON stream into dst. Its state
// carries across Write calls, so the input may be split anywhere.
type indentWriter struct {
	dst        io.Writer
	buf        []byte
	err        error
	depth      int
	needIndent bool // a '{' or '[' was the last structural byte
	inString   bool
	escaped    bool // the previous string byte was a backslash
}

var indentPool = sync.Pool{New: func() any {
	return &indentWriter{buf: make([]byte, 0, indentBufSize)}
}}

// encodeIndented writes v to w as json.MarshalIndent(v, "", "  ")
// followed by a newline — the bytes an indenting json.Encoder writes.
// A value that fails to marshal writes nothing; a write error is
// returned.
func encodeIndented(w io.Writer, v any) error {
	iw := indentPool.Get().(*indentWriter)
	*iw = indentWriter{dst: w, buf: iw.buf[:0]}
	err := json.NewEncoder(iw).Encode(v)
	if err == nil {
		err = iw.flush()
	}
	iw.dst = nil
	indentPool.Put(iw)
	return err
}

func (iw *indentWriter) Write(p []byte) (int, error) {
	// The scan state and the buffer live in locals for the loop and
	// are saved on exit.
	inString, escaped, needIndent, depth := iw.inString, iw.escaped, iw.needIndent, iw.depth
	out := iw.buf
	run := 0 // p[run:i] is copied through unchanged
	for i := 0; i < len(p); i++ {
		if inString {
			if escaped {
				escaped = false
				continue
			}
			for i < len(p) && p[i] != '"' && p[i] != '\\' {
				i++
			}
			if i == len(p) {
				break
			}
			escaped = p[i] == '\\'
			inString = escaped
			continue
		}
		c := p[i]
		if needIndent {
			needIndent = false
			if c == '}' || c == ']' {
				continue
			}
			depth++
			out = iw.put(out, p[run:i])
			run = i
			out = iw.newline(out, depth)
		}
		switch c {
		case '"':
			inString = true
		case '{', '[':
			needIndent = true
		case ',':
			out = iw.put(out, p[run:i+1])
			run = i + 1
			out = iw.newline(out, depth)
		case ':':
			out = iw.put(out, p[run:i])
			run = i + 1
			out = iw.put(out, colonSpace)
		case '}', ']':
			depth--
			out = iw.put(out, p[run:i])
			run = i
			out = iw.newline(out, depth)
		}
	}
	iw.buf = iw.put(out, p[run:])
	iw.inString, iw.escaped, iw.needIndent, iw.depth = inString, escaped, needIndent, depth
	if iw.err != nil {
		return 0, iw.err
	}
	return len(p), nil
}

// newline appends a newline and depth's indent to out.
func (iw *indentWriter) newline(out []byte, depth int) []byte {
	n := 2 * depth
	step := len(indentRun) - 1
	if n <= step {
		return iw.put(out, indentRun[:1+n])
	}
	out = iw.put(out, indentRun)
	for n -= step; n > 0; n -= step {
		out = iw.put(out, indentRun[1:1+min(n, step)])
	}
	return out
}

// put appends b to out, the indenter's buffer, flushing it to dst
// whenever it fills.
func (iw *indentWriter) put(out, b []byte) []byte {
	if len(b) <= cap(out)-len(out) {
		return append(out, b...)
	}
	return iw.putSlow(out, b)
}

// putSlow is put across flushes. After a write error the rest of the
// stream is dropped.
func (iw *indentWriter) putSlow(out, b []byte) []byte {
	for len(b) > 0 && iw.err == nil {
		n := copy(out[len(out):cap(out)], b)
		out = out[:len(out)+n]
		b = b[n:]
		if len(out) == cap(out) {
			iw.buf = out
			iw.flush()
			out = iw.buf
		}
	}
	return out
}

func (iw *indentWriter) flush() error {
	if iw.err == nil && len(iw.buf) > 0 {
		_, iw.err = iw.dst.Write(iw.buf)
	}
	iw.buf = iw.buf[:0]
	return iw.err
}

// headerOnWrite commits the response status with the first body byte,
// so an encoding that fails before producing output leaves the
// response uncommitted and the caller free to answer an error instead.
type headerOnWrite struct {
	http.ResponseWriter
	code int
}

func (w *headerOnWrite) Write(p []byte) (int, error) {
	if w.code != 0 {
		w.ResponseWriter.WriteHeader(w.code)
		w.code = 0
	}
	return w.ResponseWriter.Write(p)
}
