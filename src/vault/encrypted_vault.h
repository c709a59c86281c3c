// Encrypted per-user vault: the strongest deployment model of §4.2. Each
// record is sealed (ChaCha20 + HMAC) under the owning user's vault key; the
// application stores only ciphertext and key fingerprints. Reading a user's
// records requires the user's key, supplied through a KeyProvider — modeling
// "access might require explicit approval by the user, who holds the private
// key". Global records are sealed under an application-level key.
//
// Keys may additionally be escrowed via 2-of-3 secret sharing (crypto/key.h)
// so a lost user key is recoverable with user+app, user+third-party, or
// app+third-party cooperation.
#ifndef SRC_VAULT_ENCRYPTED_VAULT_H_
#define SRC_VAULT_ENCRYPTED_VAULT_H_

#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "src/common/rng.h"
#include "src/crypto/aead.h"
#include "src/crypto/key.h"
#include "src/vault/vault.h"

namespace edna::vault {

// Returns the vault key for `uid`, or kPermissionDenied if the user (or
// their escrow quorum) declines / is unavailable.
using KeyProvider = std::function<StatusOr<std::vector<uint8_t>>(const sql::Value& uid)>;

class EncryptedVault : public Vault {
 public:
  // `app_key` seals global records; `keys` resolves per-user keys; `rng`
  // supplies nonces (deterministic in tests).
  EncryptedVault(std::vector<uint8_t> app_key, KeyProvider keys, Rng rng);

  std::string ModelName() const override { return "encrypted"; }

  // Registers a user's key fingerprint (the key itself is never stored).
  void RegisterUser(const sql::Value& uid, const std::string& fingerprint);
  const std::string* FindFingerprint(const sql::Value& uid) const;

  Status Store(const RevealRecord& record) override;
  Status StoreBatch(const std::vector<RevealRecord>& records) override;
  StatusOr<std::vector<RevealRecord>> FetchForUser(const sql::Value& uid) override;
  StatusOr<std::vector<RevealRecord>> FetchForDisguise(uint64_t disguise_id) override;
  StatusOr<std::vector<RevealRecord>> FetchGlobal() override;
  Status Remove(uint64_t disguise_id) override;
  StatusOr<std::vector<uint64_t>> ListDisguiseIds() const override;
  StatusOr<size_t> ExpireBefore(TimePoint cutoff) override;
  size_t NumRecords() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

 private:
  struct Entry {
    uint64_t disguise_id;
    sql::Value user_id;  // Null = global
    TimePoint created;
    crypto::SealedBox box;
  };

  // Enc/MAC subkey pairs (crypto::SealKeys) derived once per raw key and
  // reused across the records of one store or fetch. Keyed by the key bytes,
  // not the owner, so a KeyProvider that rotates keys mid-batch can never
  // pair a record with stale subkeys.
  using SubkeyCache = std::map<std::vector<uint8_t>, crypto::SealKeys>;
  static const crypto::SealKeys& DerivedKeys(const std::vector<uint8_t>& key,
                                             SubkeyCache* cache);

  StatusOr<std::vector<uint8_t>> KeyFor(const sql::Value& uid);
  // Seals and appends one record, the single sealing path of Store and
  // StoreBatch: fail point, key resolution, nonce draw, seal — the schedule
  // crash batteries and deterministic-rng fingerprints pin. Requires mu_.
  Status SealLocked(const RevealRecord& record, SubkeyCache* subkeys);
  static std::string RenderOwner(const sql::Value& uid);
  StatusOr<RevealRecord> OpenEntry(const Entry& e, const crypto::SealKeys& keys);
  const std::string* FindFingerprintLocked(const sql::Value& uid) const;

  std::vector<uint8_t> app_key_;
  KeyProvider keys_;
  // One mutex guards entries_, fingerprints_, and the nonce rng. Crypto runs
  // under the lock: this backend models the per-user-approval deployment and
  // is not on the parallel-batch fast path (OfflineVault is); the KeyProvider
  // callback must not call back into the vault.
  mutable std::mutex mu_;
  Rng rng_;
  std::map<std::string, std::string> fingerprints_;  // rendered uid -> fp
  std::vector<Entry> entries_;
};

}  // namespace edna::vault

#endif  // SRC_VAULT_ENCRYPTED_VAULT_H_
