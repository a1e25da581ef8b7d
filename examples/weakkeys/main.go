// Weakkeys: the complete break, end to end. A "web crawl" of public keys
// contains two keys generated with bad randomness (shared prime). A secret
// message is encrypted to one of them; the attack factors the modulus,
// reconstructs the private key and decrypts the message - the full threat
// model of the paper's introduction.
//
//	go run ./examples/weakkeys
package main

import (
	"context"
	"fmt"
	"log"
	"math/big"

	"bulkgcd"
	"bulkgcd/internal/rsakey"
)

func main() {
	log.SetFlags(0)

	// A corpus of 32 RSA-512 keys, one weak pair among them.
	moduli, planted, err := bulkgcd.GenerateWeakCorpus(32, 512, 1, 99)
	if err != nil {
		log.Fatal(err)
	}
	victim := planted[0].I
	fmt.Printf("collected %d public keys; key %d secretly shares a prime with key %d\n",
		len(moduli), planted[0].I, planted[0].J)

	// Encrypt a message to the victim's public key (n, e=65537).
	msg := new(big.Int).SetBytes([]byte("attack at dawn"))
	ct := new(big.Int).Exp(msg, big.NewInt(rsakey.DefaultExponent), moduli[victim])
	fmt.Printf("intercepted ciphertext to key %d: %s...\n", victim, ct.Text(16)[:24])

	// Run the attack over the public corpus only.
	report, err := bulkgcd.New(bulkgcd.WithAlgorithm(bulkgcd.Approximate)).
		Run(context.Background(), moduli)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attack: %d pair GCDs computed, %d keys broken\n",
		report.Pairs, len(report.Broken))

	for _, bk := range report.Broken {
		if bk.Index != victim {
			continue
		}
		if bk.D == nil {
			log.Fatal("factored the modulus but no private exponent")
		}
		pt := new(big.Int).Exp(ct, bk.D, bk.N)
		fmt.Printf("recovered private key for key %d\n", bk.Index)
		fmt.Printf("decrypted message: %q\n", string(pt.Bytes()))
		if string(pt.Bytes()) != "attack at dawn" {
			log.Fatal("decryption mismatch")
		}
		return
	}
	log.Fatal("victim key not broken")
}
