// inplace.go — plaintext-flow fixture for in-place decryption: Decrypt
// overwrites its ciphertext argument with the plaintext, so the argument is
// a source from the call on, whatever the call's results are bound to.
package chunkstore

// leakDecryptedBody decrypts a record body in place, ignores the result,
// and writes the body: positive.
func (s *flowStore) leakDecryptedBody(rec []byte) error {
	body := rec[8:]
	if _, err := s.suite.Decrypt(body); err != nil {
		return err
	}
	return s.writeRaw(body, 32)
}

// reencryptBody decrypts a record body in place and writes only its
// re-encryption: negative.
func (s *flowStore) reencryptBody(body []byte) error {
	plain, err := s.suite.Decrypt(body)
	if err != nil {
		return err
	}
	return s.writeRaw(s.suite.Encrypt(plain, 2), 40)
}
