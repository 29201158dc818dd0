package huffman

// The reference decoders, for the tests in package huffman_test, which
// import the codecs that import this package.
var (
	DecodeScalar  = decodeScalar
	DecodeChunked = decodeChunked
	ErrClass      = errClass
)

// MultiOn reports whether Open builds the multi-code table for buf.
func MultiOn(buf []byte) bool {
	d := AcquireDecoder()
	defer d.Release()
	return d.Open(buf) == nil && d.multiOn
}
