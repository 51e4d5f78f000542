#include "src/workload/workload.h"

#include <cassert>
#include <cstdio>

namespace aiql {
namespace {

// Background process populations. Windows hosts and Linux hosts get different
// software mixes; a handful of "hot" processes dominate activity (skewed
// picks) as in real deployments.
const char* kWindowsProcs[] = {
    "C:\\Windows\\System32\\svchost.exe",    "C:\\Windows\\explorer.exe",
    "C:\\Windows\\System32\\winlogon.exe",   "C:\\Windows\\System32\\services.exe",
    "C:\\Windows\\System32\\lsass.exe",      "C:\\Program Files\\Chrome\\chrome.exe",
    "C:\\Program Files\\Firefox\\firefox.exe", "C:\\Program Files\\Outlook\\outlook.exe",
    "C:\\Program Files\\Office\\excel.exe",  "C:\\Program Files\\Office\\winword.exe",
    "C:\\Windows\\System32\\cmd.exe",        "C:\\Windows\\System32\\powershell.exe",
    "C:\\Windows\\System32\\taskhost.exe",   "C:\\Windows\\System32\\spoolsv.exe",
    "C:\\Windows\\System32\\wuauclt.exe",    "C:\\Windows\\System32\\conhost.exe",
};
const char* kLinuxProcs[] = {
    "/usr/bin/bash",   "/usr/sbin/sshd",    "/usr/sbin/cron",   "/usr/sbin/apache2",
    "/usr/bin/python3", "/bin/cp",          "/usr/bin/wget",    "/usr/bin/vim",
    "/usr/lib/systemd/systemd", "/usr/bin/rsync", "/usr/bin/scp", "/usr/bin/tar",
};

const char* kWindowsDirs[] = {"C:\\Windows\\System32\\", "C:\\Users\\victim\\Documents\\",
                              "C:\\Users\\victim\\AppData\\Local\\Temp\\",
                              "C:\\ProgramData\\logs\\", "C:\\Program Files\\Common\\"};
const char* kLinuxDirs[] = {"/etc/", "/var/log/", "/home/admin/", "/tmp/", "/usr/lib/"};

const char* kWindowsExts[] = {".dll", ".docx", ".tmp", ".log", ".ini"};
const char* kLinuxExts[] = {".conf", ".log", ".txt", ".so", ".sh"};

bool IsLinuxHost(const ScenarioConfig& cfg, AgentId agent) {
  return agent == cfg.linux_host_a || agent == cfg.linux_host_b || agent % 4 == 0;
}

}  // namespace

std::string ScenarioConfig::DateString(int day_offset) const {
  TimestampMs t = DayStartTs(day_offset);
  int64_t days = DayIndex(t);
  // Re-derive the calendar date from the timestamp for correctness across
  // month boundaries.
  std::string iso = FormatTimestamp(DayStart(days));  // YYYY-MM-DD hh:mm:ss.mmm
  std::string yyyy = iso.substr(0, 4), mm = iso.substr(5, 2), dd = iso.substr(8, 2);
  return mm + "/" + dd + "/" + yyyy;
}

uint32_t Workload::Proc(AgentId agent, const std::string& exe, int64_t pid,
                        const std::string& user, const std::string& signature) {
  if (pid == 0) {
    // Stable synthetic pid per (agent, exe).
    pid = 1000 + static_cast<int64_t>(std::hash<std::string>{}(exe) % 8000);
  }
  return db_->catalog().InternProcess(agent, pid, exe, user, exe, signature);
}

uint32_t Workload::File(AgentId agent, const std::string& name) {
  return db_->catalog().InternFile(agent, name);
}

uint32_t Workload::Ip(AgentId agent, const std::string& dst_ip, int32_t dst_port) {
  return db_->catalog().InternNetwork(agent, "10.0.0." + std::to_string(agent), dst_ip, 49152,
                                      dst_port);
}

void Workload::GenerateBackground() {
  const TraceConfig& tc = config_.trace;
  Rng rng(tc.seed);
  for (AgentId agent = 1; agent <= tc.num_hosts; ++agent) {
    bool linux_host = IsLinuxHost(config_, agent);
    const char** proc_pool = linux_host ? kLinuxProcs : kWindowsProcs;
    size_t proc_pool_size =
        linux_host ? std::size(kLinuxProcs) : std::size(kWindowsProcs);
    const char** dirs = linux_host ? kLinuxDirs : kWindowsDirs;
    size_t dirs_size = linux_host ? std::size(kLinuxDirs) : std::size(kWindowsDirs);
    const char** exts = linux_host ? kLinuxExts : kWindowsExts;
    size_t exts_size = linux_host ? std::size(kLinuxExts) : std::size(kWindowsExts);

    // Intern the host's populations.
    std::vector<uint32_t> procs;
    for (size_t i = 0; i < tc.procs_per_host; ++i) {
      const char* exe = proc_pool[i % proc_pool_size];
      procs.push_back(Proc(agent, exe, 1000 + static_cast<int64_t>(i),
                           i % 3 == 0 ? "system" : "user",
                           i % 5 == 0 ? "verified" : "unsigned"));
    }
    std::vector<uint32_t> files;
    for (size_t i = 0; i < tc.files_per_host; ++i) {
      std::string name = std::string(dirs[i % dirs_size]) + "obj" + std::to_string(i) +
                         exts[(i / dirs_size) % exts_size];
      files.push_back(File(agent, name));
    }
    std::vector<uint32_t> ips;
    for (size_t i = 0; i < tc.external_ips; ++i) {
      ips.push_back(Ip(agent, "203.0." + std::to_string(i / 200) + "." + std::to_string(i % 200),
                       i % 2 == 0 ? 443 : 80));
    }
    uint32_t loopback = Ip(agent, "10.0.0." + std::to_string(agent), 22);

    for (int day = 0; day < tc.num_days; ++day) {
      TimestampMs day_start = config_.DayStartTs(day);
      for (size_t k = 0; k < tc.events_per_host_per_day; ++k) {
        // Uniform event times with mild morning/afternoon bursts.
        TimestampMs t = day_start + static_cast<TimestampMs>(rng.Below(kDayMs));
        uint32_t subject = procs[rng.Skewed(procs.size(), 1.6)];
        double roll = rng.Uniform();
        if (roll < 0.42) {
          db_->RecordEvent(agent, subject, Operation::kRead, EntityType::kFile,
                           files[rng.Skewed(files.size(), 1.3)], t,
                           static_cast<int64_t>(rng.Range(128, 65536)));
        } else if (roll < 0.62) {
          db_->RecordEvent(agent, subject, Operation::kWrite, EntityType::kFile,
                           files[rng.Skewed(files.size(), 1.3)], t,
                           static_cast<int64_t>(rng.Range(64, 32768)));
        } else if (roll < 0.72) {
          db_->RecordEvent(agent, subject, Operation::kStart, EntityType::kProcess,
                           procs[rng.Skewed(procs.size(), 1.2)], t);
        } else if (roll < 0.76) {
          db_->RecordEvent(agent, subject, Operation::kExecute, EntityType::kFile,
                           files[rng.Below(files.size())], t);
        } else if (roll < 0.88) {
          Operation op = rng.Chance(0.5) ? Operation::kRead : Operation::kWrite;
          db_->RecordEvent(agent, subject, op, EntityType::kNetwork,
                           ips[rng.Skewed(ips.size(), 1.4)], t,
                           static_cast<int64_t>(rng.Range(512, 1 << 20)));
        } else if (roll < 0.94) {
          db_->RecordEvent(agent, subject, Operation::kConnect, EntityType::kNetwork,
                           ips[rng.Skewed(ips.size(), 1.4)], t);
        } else if (roll < 0.97) {
          Operation op = rng.Chance(0.6) ? Operation::kDelete : Operation::kRename;
          db_->RecordEvent(agent, subject, op, EntityType::kFile,
                           files[rng.Below(files.size())], t);
        } else {
          db_->RecordEvent(agent, subject, Operation::kAccept, EntityType::kNetwork, loopback, t,
                           static_cast<int64_t>(rng.Range(64, 4096)));
        }
      }
    }
  }
}

void Workload::InjectAptCaseStudy() {
  const AgentId w = config_.win_client;
  const AgentId d = config_.db_server;
  const AgentId m = config_.mail_server;
  const std::string& atk = config_.attacker_ip;
  TimestampMs day = config_.DayStartTs(config_.attack_day);

  // --- c1: initial compromise (crafted email with macro'd Excel file) ---
  TimestampMs t = day + 9 * kHourMs + 30 * kMinuteMs;
  uint32_t outlook = Proc(w, "C:\\Program Files\\Outlook\\outlook.exe", 2100, "victim",
                          "verified");
  uint32_t mail_ip = Ip(w, "10.0.0." + std::to_string(m), 993);
  uint32_t xls = File(w, "C:\\Users\\victim\\Downloads\\Q4_report.xls");
  uint32_t excel = Proc(w, "C:\\Program Files\\Office\\excel.exe", 2144, "victim", "verified");
  db_->RecordEvent(w, outlook, Operation::kRead, EntityType::kNetwork, mail_ip, t, 2 << 20);
  db_->RecordEvent(w, outlook, Operation::kWrite, EntityType::kFile, xls, t + 20 * kSecondMs,
                   1 << 20);
  db_->RecordEvent(w, outlook, Operation::kStart, EntityType::kProcess, excel,
                   t + 5 * kMinuteMs);

  // --- c2: malware infection (macro downloads + runs the malware) ---
  t = day + 9 * kHourMs + 40 * kMinuteMs;
  uint32_t atk_ip = Ip(w, atk, 8080);
  uint32_t dropper_file = File(w, "C:\\Users\\victim\\AppData\\Local\\Temp\\dropper.exe");
  uint32_t dropper = Proc(w, "C:\\Users\\victim\\AppData\\Local\\Temp\\dropper.exe", 2208,
                          "victim");
  uint32_t malware_file = File(w, "C:\\Windows\\System32\\msupdata.exe");
  uint32_t malware = Proc(w, "C:\\Windows\\System32\\msupdata.exe", 2244, "victim");
  uint32_t atk_backdoor = Ip(w, atk, 443);
  db_->RecordEvent(w, excel, Operation::kRead, EntityType::kFile, xls, t);
  db_->RecordEvent(w, excel, Operation::kConnect, EntityType::kNetwork, atk_ip,
                   t + 30 * kSecondMs);
  db_->RecordEvent(w, excel, Operation::kWrite, EntityType::kFile, dropper_file,
                   t + kMinuteMs, 350 << 10);
  db_->RecordEvent(w, excel, Operation::kStart, EntityType::kProcess, dropper,
                   t + 2 * kMinuteMs);
  db_->RecordEvent(w, dropper, Operation::kWrite, EntityType::kFile, malware_file,
                   t + 3 * kMinuteMs, 500 << 10);
  db_->RecordEvent(w, dropper, Operation::kStart, EntityType::kProcess, malware,
                   t + 4 * kMinuteMs);
  for (int i = 0; i < 20; ++i) {  // backdoor beacons
    db_->RecordEvent(w, malware, Operation::kConnect, EntityType::kNetwork, atk_backdoor,
                     t + 5 * kMinuteMs + i * 90 * kSecondMs);
  }

  // --- c3: privilege escalation (port scan + credential dumping) ---
  t = day + 11 * kHourMs;
  std::string db_ip = "10.0.0." + std::to_string(d);
  for (int port = 1430; port < 1460; ++port) {  // scan toward the DB server
    uint32_t scan_ip = Ip(w, db_ip, port);
    db_->RecordEvent(w, malware, Operation::kConnect, EntityType::kNetwork, scan_ip,
                     t + (port - 1430) * 2 * kSecondMs);
  }
  uint32_t gsec_file = File(w, "C:\\Users\\victim\\AppData\\Local\\Temp\\gsecdump.exe");
  uint32_t gsec = Proc(w, "C:\\Users\\victim\\AppData\\Local\\Temp\\gsecdump.exe", 2301,
                       "victim");
  uint32_t sam = File(w, "C:\\Windows\\System32\\config\\SAM");
  uint32_t creds = File(w, "C:\\Users\\victim\\AppData\\Local\\Temp\\creds.txt");
  db_->RecordEvent(w, malware, Operation::kWrite, EntityType::kFile, gsec_file,
                   t + 2 * kMinuteMs, 120 << 10);
  db_->RecordEvent(w, malware, Operation::kStart, EntityType::kProcess, gsec,
                   t + 3 * kMinuteMs);
  db_->RecordEvent(w, gsec, Operation::kRead, EntityType::kFile, sam, t + 4 * kMinuteMs);
  db_->RecordEvent(w, gsec, Operation::kWrite, EntityType::kFile, creds, t + 5 * kMinuteMs,
                   4096);
  db_->RecordEvent(w, malware, Operation::kRead, EntityType::kFile, creds, t + 6 * kMinuteMs);
  db_->RecordEvent(w, malware, Operation::kWrite, EntityType::kNetwork, atk_backdoor,
                   t + 7 * kMinuteMs, 8192);

  // --- c4: penetration into the database server ---
  t = day + 13 * kHourMs;
  uint32_t winlogon = Proc(d, "C:\\Windows\\System32\\winlogon.exe", 640, "system", "verified");
  uint32_t cmd_d = Proc(d, "C:\\Windows\\System32\\cmd.exe", 3120, "dbadmin");
  uint32_t wscript = Proc(d, "C:\\Windows\\System32\\wscript.exe", 3160, "dbadmin");
  uint32_t sbblv_file = File(d, "C:\\Windows\\Temp\\sbblv.exe");
  uint32_t sbblv = Proc(d, "C:\\Windows\\Temp\\sbblv.exe", 3208, "dbadmin");
  uint32_t atk_d = Ip(d, atk, 443);
  db_->RecordEvent(d, winlogon, Operation::kStart, EntityType::kProcess, cmd_d, t);
  db_->RecordEvent(d, cmd_d, Operation::kStart, EntityType::kProcess, wscript,
                   t + 2 * kMinuteMs);
  db_->RecordEvent(d, wscript, Operation::kWrite, EntityType::kFile, sbblv_file,
                   t + 4 * kMinuteMs, 300 << 10);
  db_->RecordEvent(d, wscript, Operation::kStart, EntityType::kProcess, sbblv,
                   t + 6 * kMinuteMs);
  for (int i = 0; i < 10; ++i) {
    db_->RecordEvent(d, sbblv, Operation::kConnect, EntityType::kNetwork, atk_d,
                     t + 8 * kMinuteMs + i * 3 * kMinuteMs);
  }

  // --- c5: data exfiltration (osql dump + send-back) ---
  t = day + 15 * kHourMs;
  uint32_t osql = Proc(d, "C:\\Program Files\\SQL\\osql.exe", 3302, "dbadmin", "verified");
  uint32_t sqlservr = Proc(d, "C:\\Program Files\\SQL\\sqlservr.exe", 1780, "system",
                           "verified");
  uint32_t dump = File(d, "C:\\DB\\BACKUP1.DMP");
  uint32_t local_sql = Ip(d, "10.0.0." + std::to_string(d), 1433);
  db_->RecordEvent(d, cmd_d, Operation::kStart, EntityType::kProcess, osql, t);
  db_->RecordEvent(d, osql, Operation::kConnect, EntityType::kNetwork, local_sql,
                   t + 20 * kSecondMs);
  db_->RecordEvent(d, sqlservr, Operation::kWrite, EntityType::kFile, dump, t + 2 * kMinuteMs,
                   200ll << 20);
  for (int i = 0; i < 6; ++i) {
    db_->RecordEvent(d, sbblv, Operation::kRead, EntityType::kFile, dump,
                     t + 5 * kMinuteMs + i * 30 * kSecondMs, 32 << 20);
  }
  // The exfiltration burst that trips the network-transfer anomaly detector:
  // ~50 MB over ten minutes against a calm history.
  for (int i = 0; i < 30; ++i) {
    db_->RecordEvent(d, sbblv, Operation::kWrite, EntityType::kNetwork, atk_d,
                     t + 10 * kMinuteMs + i * 20 * kSecondMs, 1700 << 10);
  }
}

void Workload::InjectSecondApt() {
  const AgentId a = config_.linux_host_a;
  const std::string atk2 = "XXX.77";
  TimestampMs day = config_.DayStartTs(config_.attack_day);
  TimestampMs t = day + 10 * kHourMs;

  uint32_t apache = Proc(a, "/usr/sbin/apache2", 901, "www-data", "verified");
  uint32_t bash = Proc(a, "/usr/bin/bash", 2411, "www-data");
  uint32_t atk_ip = Ip(a, atk2, 4444);
  uint32_t rk_file = File(a, "/tmp/.rk.sh");
  uint32_t rk = Proc(a, "/tmp/.rk.sh", 2450, "www-data");
  uint32_t passwd = File(a, "/etc/passwd");
  uint32_t shadow = File(a, "/etc/shadow");
  uint32_t cron_file = File(a, "/etc/cron.d/sysupdate");
  uint32_t cron = Proc(a, "/usr/sbin/cron", 412, "root", "verified");
  uint32_t rk2 = Proc(a, "/tmp/.rk.sh", 2688, "root");

  // a1: web-shell exploit — apache spawns an interactive shell.
  db_->RecordEvent(a, apache, Operation::kStart, EntityType::kProcess, bash, t);
  db_->RecordEvent(a, bash, Operation::kConnect, EntityType::kNetwork, atk_ip,
                   t + 30 * kSecondMs);
  // a2: rootkit dropped and launched.
  db_->RecordEvent(a, bash, Operation::kWrite, EntityType::kFile, rk_file, t + kMinuteMs,
                   90 << 10);
  db_->RecordEvent(a, bash, Operation::kStart, EntityType::kProcess, rk, t + 2 * kMinuteMs);
  db_->RecordEvent(a, rk, Operation::kConnect, EntityType::kNetwork, atk_ip,
                   t + 3 * kMinuteMs);
  // a3: credential harvesting.
  db_->RecordEvent(a, rk, Operation::kRead, EntityType::kFile, passwd, t + 4 * kMinuteMs);
  db_->RecordEvent(a, rk, Operation::kRead, EntityType::kFile, shadow,
                   t + 4 * kMinuteMs + 10 * kSecondMs);
  db_->RecordEvent(a, rk, Operation::kWrite, EntityType::kNetwork, atk_ip, t + 5 * kMinuteMs,
                   16384);
  // a4: persistence via cron.
  db_->RecordEvent(a, rk, Operation::kWrite, EntityType::kFile, cron_file, t + 6 * kMinuteMs,
                   512);
  db_->RecordEvent(a, cron, Operation::kRead, EntityType::kFile, cron_file,
                   t + 10 * kMinuteMs);
  db_->RecordEvent(a, cron, Operation::kStart, EntityType::kProcess, rk2, t + 11 * kMinuteMs);
  db_->RecordEvent(a, rk2, Operation::kConnect, EntityType::kNetwork, atk_ip,
                   t + 12 * kMinuteMs);
  // a5: bulk exfiltration of home directories.
  for (int i = 0; i < 24; ++i) {
    uint32_t doc = File(a, "/home/admin/projects/doc" + std::to_string(i) + ".txt");
    db_->RecordEvent(a, rk2, Operation::kRead, EntityType::kFile, doc,
                     t + 15 * kMinuteMs + i * 5 * kSecondMs, 1 << 20);
  }
  for (int i = 0; i < 12; ++i) {
    db_->RecordEvent(a, rk2, Operation::kWrite, EntityType::kNetwork, atk_ip,
                     t + 17 * kMinuteMs + i * 10 * kSecondMs, 2 << 20);
  }
}

void Workload::InjectDependencies() {
  // d1/d2: provenance chains of software updaters (tracked backward in the
  // investigation; injected forward here).
  const AgentId w = config_.win_client;
  TimestampMs day = config_.DayStartTs(0);
  TimestampMs t = day + 8 * kHourMs;

  uint32_t gupdate = Proc(w, "C:\\Program Files\\Google\\googleupdate.exe", 1501, "system",
                          "verified");
  uint32_t chrome_up_file = File(w, "C:\\Program Files\\Google\\chrome_update.exe");
  uint32_t explorer = Proc(w, "C:\\Windows\\explorer.exe", 1320, "victim", "verified");
  uint32_t chrome_up = Proc(w, "C:\\Program Files\\Google\\chrome_update.exe", 1560, "victim",
                            "verified");
  db_->RecordEvent(w, gupdate, Operation::kWrite, EntityType::kFile, chrome_up_file, t,
                   42 << 20);
  db_->RecordEvent(w, explorer, Operation::kRead, EntityType::kFile, chrome_up_file,
                   t + 5 * kMinuteMs);
  db_->RecordEvent(w, explorer, Operation::kStart, EntityType::kProcess, chrome_up,
                   t + 6 * kMinuteMs);

  uint32_t jusched = Proc(w, "C:\\Program Files\\Java\\jusched.exe", 1710, "system",
                          "verified");
  // Updater housekeeping: many temp-file writes, so provenance queries over
  // "what did the updater write" face a genuinely large candidate set.
  size_t temp_writes = 40 + config_.trace.events_per_host_per_day / 100;
  for (size_t i = 0; i < temp_writes; ++i) {
    uint32_t tmp = File(w, "C:\\Users\\victim\\AppData\\LocalLow\\Sun\\tmp" +
                               std::to_string(i) + ".idx");
    db_->RecordEvent(w, jusched, Operation::kWrite, EntityType::kFile, tmp,
                     t - kHourMs + static_cast<TimestampMs>(i) * 30 * kSecondMs, 2048);
  }
  uint32_t java_up_file = File(w, "C:\\Program Files\\Java\\java_update.exe");
  uint32_t java_up = Proc(w, "C:\\Program Files\\Java\\java_update.exe", 1755, "victim",
                          "verified");
  db_->RecordEvent(w, jusched, Operation::kWrite, EntityType::kFile, java_up_file,
                   t + kHourMs, 60 << 20);
  db_->RecordEvent(w, explorer, Operation::kRead, EntityType::kFile, java_up_file,
                   t + kHourMs + 4 * kMinuteMs);
  db_->RecordEvent(w, explorer, Operation::kStart, EntityType::kProcess, java_up,
                   t + kHourMs + 5 * kMinuteMs);

  // d3: cross-host malware ramification (paper Query 3): /bin/cp writes the
  // info stealer on host A, apache serves it, wget on host B fetches and
  // stores it. The apache->wget link is a cross-host process connect event.
  const AgentId a = config_.linux_host_a;
  const AgentId b = config_.linux_host_b;
  t = config_.DayStartTs(config_.attack_day) + 14 * kHourMs;
  uint32_t cp = Proc(a, "/bin/cp", 2710, "root", "verified");
  uint32_t stealer_a = File(a, "/var/www/html/info_stealer.sh");
  uint32_t apache_a = Proc(a, "/usr/sbin/apache2", 901, "www-data", "verified");
  uint32_t wget_b = Proc(b, "/usr/bin/wget", 3011, "admin", "verified");
  uint32_t stealer_b = File(b, "/home/admin/downloads/info_stealer.sh");
  db_->RecordEvent(a, cp, Operation::kWrite, EntityType::kFile, stealer_a, t, 24 << 10);
  db_->RecordEvent(a, apache_a, Operation::kRead, EntityType::kFile, stealer_a,
                   t + 3 * kMinuteMs, 24 << 10);
  db_->RecordEvent(a, apache_a, Operation::kConnect, EntityType::kProcess, wget_b,
                   t + 3 * kMinuteMs + 5 * kSecondMs);
  db_->RecordEvent(b, wget_b, Operation::kWrite, EntityType::kFile, stealer_b,
                   t + 4 * kMinuteMs, 24 << 10);
}

void Workload::InjectMalware() {
  // VirusSign samples (paper Table 4). Behaviors follow the categories:
  // Sysbot = C2 beaconing bot, Hooker = input hooking + staging file,
  // Autorun = removable-media self-replication.
  TimestampMs day = config_.DayStartTs(0);
  auto extra_host = [&](uint32_t k) {
    return static_cast<AgentId>(1 + (config_.linux_host_b + k) % config_.trace.num_hosts);
  };

  // v1: Trojan.Sysbot.
  {
    AgentId h = extra_host(1);
    TimestampMs t = day + 12 * kHourMs;
    uint32_t mw = Proc(h, "C:\\Users\\victim\\AppData\\7dd95111e9e100b6.exe", 4001, "victim");
    uint32_t c2 = Ip(h, "XXX.201", 6667);
    uint32_t stage = File(h, "C:\\ProgramData\\sysbot.dat");
    for (int i = 0; i < 40; ++i) {
      db_->RecordEvent(h, mw, Operation::kConnect, EntityType::kNetwork, c2,
                       t + i * kMinuteMs);
    }
    db_->RecordEvent(h, mw, Operation::kWrite, EntityType::kFile, stage, t + 2 * kMinuteMs,
                     8192);
  }
  // v2: Trojan.Hooker.
  {
    AgentId h = extra_host(2);
    TimestampMs t = day + 13 * kHourMs;
    uint32_t mw = Proc(h, "C:\\Users\\victim\\AppData\\425327783e88bb64.exe", 4002, "victim");
    uint32_t keylog = File(h, "C:\\ProgramData\\keylog.bin");
    uint32_t docs = File(h, "C:\\Users\\victim\\Documents\\passwords.docx");
    db_->RecordEvent(h, mw, Operation::kRead, EntityType::kFile, docs, t);
    for (int i = 0; i < 30; ++i) {
      db_->RecordEvent(h, mw, Operation::kWrite, EntityType::kFile, keylog,
                       t + i * 2 * kMinuteMs, 512);
    }
  }
  // v3: Virus.Autorun.
  {
    AgentId h = extra_host(3);
    TimestampMs t = day + 14 * kHourMs;
    uint32_t mw = Proc(h, "C:\\Users\\victim\\AppData\\ee111901739531d6.exe", 4003, "victim");
    uint32_t autorun = File(h, "E:\\autorun.inf");
    uint32_t self_copy = File(h, "E:\\ee111901739531d6.exe");
    db_->RecordEvent(h, mw, Operation::kWrite, EntityType::kFile, autorun, t, 128);
    db_->RecordEvent(h, mw, Operation::kWrite, EntityType::kFile, self_copy,
                     t + 10 * kSecondMs, 300 << 10);
  }
  // v4: Virus.Sysbot — beacon plus a spawned shell.
  {
    AgentId h = extra_host(4);
    TimestampMs t = day + 15 * kHourMs;
    uint32_t mw = Proc(h, "C:\\Users\\victim\\AppData\\4e720458c357310d.exe", 4004, "victim");
    uint32_t c2 = Ip(h, "XXX.202", 6667);
    uint32_t cmd = Proc(h, "C:\\Windows\\System32\\cmd.exe", 4044, "victim");
    for (int i = 0; i < 25; ++i) {
      db_->RecordEvent(h, mw, Operation::kConnect, EntityType::kNetwork, c2,
                       t + i * 90 * kSecondMs);
    }
    db_->RecordEvent(h, mw, Operation::kStart, EntityType::kProcess, cmd, t + 5 * kMinuteMs);
  }
  // v5: Trojan.Hooker (same sample name as v1 in the paper's Table 4).
  {
    AgentId h = extra_host(5);
    TimestampMs t = day + 16 * kHourMs;
    uint32_t mw = Proc(h, "C:\\Users\\victim\\AppData\\7dd95111e9e100b6.exe", 4005, "victim");
    uint32_t hookdll = File(h, "C:\\Windows\\System32\\hook32.dll");
    uint32_t keylog = File(h, "C:\\ProgramData\\keylog2.bin");
    db_->RecordEvent(h, mw, Operation::kWrite, EntityType::kFile, hookdll, t, 64 << 10);
    for (int i = 0; i < 20; ++i) {
      db_->RecordEvent(h, mw, Operation::kWrite, EntityType::kFile, keylog,
                       t + i * 3 * kMinuteMs, 256);
    }
  }
}

void Workload::InjectAbnormal() {
  TimestampMs day = config_.DayStartTs(config_.attack_day);
  const AgentId a = config_.linux_host_a;

  // s1: command history probing (paper Query 2): sshd starts bash, the same
  // bash then reads shell history files.
  {
    TimestampMs t = day + 8 * kHourMs;
    uint32_t sshd = Proc(a, "/usr/sbin/sshd", 433, "root", "verified");
    uint32_t bash = Proc(a, "/usr/bin/bash", 5100, "admin");
    uint32_t viminfo = File(a, "/home/admin/.viminfo");
    uint32_t hist = File(a, "/home/admin/.bash_history");
    db_->RecordEvent(a, sshd, Operation::kStart, EntityType::kProcess, bash, t);
    db_->RecordEvent(a, bash, Operation::kRead, EntityType::kFile, viminfo,
                     t + 2 * kMinuteMs);
    db_->RecordEvent(a, bash, Operation::kRead, EntityType::kFile, hist, t + 3 * kMinuteMs);
  }
  // s2: suspicious web service: apache spawns a shell that dials out.
  {
    TimestampMs t = day + 9 * kHourMs;
    uint32_t apache = Proc(a, "/usr/sbin/apache2", 901, "www-data", "verified");
    uint32_t sh = Proc(a, "/usr/bin/sh", 5201, "www-data");
    uint32_t ext = Ip(a, "XXX.88", 1337);
    db_->RecordEvent(a, apache, Operation::kStart, EntityType::kProcess, sh, t);
    db_->RecordEvent(a, sh, Operation::kConnect, EntityType::kNetwork, ext,
                     t + 20 * kSecondMs);
  }
  // s3: frequent network access: a scanner touching many distinct addresses.
  {
    AgentId h = config_.win_client;
    TimestampMs t = day + 10 * kHourMs;
    uint32_t scanner = Proc(h, "C:\\Users\\victim\\AppData\\netscan.exe", 5301, "victim");
    for (int i = 0; i < 120; ++i) {
      uint32_t ip = Ip(h, "172.16." + std::to_string(i / 250) + "." + std::to_string(i % 250),
                       445);
      db_->RecordEvent(h, scanner, Operation::kRead, EntityType::kNetwork, ip,
                       t + i * kSecondMs, 256);
    }
  }
  // s4: erasing traces from system files.
  {
    TimestampMs t = day + 11 * kHourMs;
    uint32_t cleaner = Proc(a, "/tmp/.cleaner", 5401, "root");
    uint32_t syslog = File(a, "/var/log/syslog");
    uint32_t auth = File(a, "/var/log/auth.log");
    uint32_t hist = File(a, "/home/admin/.bash_history");
    db_->RecordEvent(a, cleaner, Operation::kDelete, EntityType::kFile, syslog, t);
    db_->RecordEvent(a, cleaner, Operation::kDelete, EntityType::kFile, auth,
                     t + 40 * kSecondMs);
    db_->RecordEvent(a, cleaner, Operation::kDelete, EntityType::kFile, hist,
                     t + 80 * kSecondMs);
  }
  // s5: network access spike: calm baseline then a one-minute burst.
  {
    AgentId h = static_cast<AgentId>(1 + config_.linux_host_b % config_.trace.num_hosts);
    TimestampMs t = day + 12 * kHourMs;
    uint32_t uploader = Proc(h, "C:\\Users\\victim\\AppData\\uploader.exe", 5501, "victim");
    uint32_t dst = Ip(h, "XXX.150", 443);
    for (int i = 0; i < 30; ++i) {  // baseline: ~64 KB/min for half an hour
      db_->RecordEvent(h, uploader, Operation::kWrite, EntityType::kNetwork, dst,
                       t + i * kMinuteMs, 64 << 10);
    }
    for (int i = 0; i < 12; ++i) {  // spike: ~96 MB within one minute
      db_->RecordEvent(h, uploader, Operation::kWrite, EntityType::kNetwork, dst,
                       t + 30 * kMinuteMs + i * 5 * kSecondMs, 8 << 20);
    }
  }
  // s6: abnormal file access: a process suddenly reading hundreds of files.
  {
    AgentId h = config_.win_client;
    TimestampMs t = day + 16 * kHourMs;
    uint32_t locker = Proc(h, "C:\\Users\\victim\\AppData\\locker.exe", 5601, "victim");
    for (int i = 0; i < 25; ++i) {  // baseline trickle over 50 minutes
      uint32_t f = File(h, "C:\\Users\\victim\\Documents\\base" + std::to_string(i) + ".docx");
      db_->RecordEvent(h, locker, Operation::kRead, EntityType::kFile, f,
                       t + i * 2 * kMinuteMs, 4096);
    }
    for (int i = 0; i < 220; ++i) {  // burst
      uint32_t f = File(h, "C:\\Users\\victim\\Documents\\doc" + std::to_string(i) + ".docx");
      db_->RecordEvent(h, locker, Operation::kRead, EntityType::kFile, f,
                       t + 55 * kMinuteMs + i * 200, 4096);
    }
  }
}

void Workload::Build() {
  assert(config_.trace.num_hosts >= 6 && "scenario roles need at least 6 hosts");
  GenerateBackground();
  InjectAptCaseStudy();
  InjectSecondApt();
  InjectDependencies();
  InjectMalware();
  InjectAbnormal();
}

}  // namespace aiql
