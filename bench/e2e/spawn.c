/* spawn RESULT TIMEOUT_MS PROG [ARG...]

   Runs PROG as a child of this small process, waits for it, and writes
   one line to RESULT:

     <status> <wall ns> <user+sys ms> <ru_maxrss kB>

   status is the exit code, 128+signal for a signalled child, or -1 when
   the child outlived TIMEOUT_MS and was killed.  The rusage covers the
   child and every descendant.

   The child leads its own process group, and this process is a child
   subreaper, so descendants the child leaves behind (fleet workers of a
   killed CLI) are adopted here.  Once the child has exited, the whole
   group is killed and every descendant reaped before RESULT is written:
   nothing keeps writing into the caller's scratch directory afterwards,
   and the rusage includes the orphans.

   The benchmark cannot fork the CLI itself: exec keeps the old address
   space's high-water mark as the new program's ru_maxrss, so every child
   of the benchmark process would report at least the benchmark's own
   peak RSS.  This process stays small. */

#define _GNU_SOURCE
#include <errno.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

static pid_t child;
static volatile sig_atomic_t timed_out;

static void on_alarm(int sig)
{
  (void)sig;
  timed_out = 1;
  kill(-child, SIGKILL);
}

static long long now_ns(void)
{
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

int main(int argc, char **argv)
{
  if (argc < 4) {
    fprintf(stderr, "usage: spawn RESULT TIMEOUT_MS PROG [ARG...]\n");
    return 2;
  }
  int timeout_ms = atoi(argv[2]), status = 0;
  if (prctl(PR_SET_CHILD_SUBREAPER, 1) != 0) { perror("prctl"); return 2; }
  struct sigaction sa = { .sa_handler = on_alarm };
  sigaction(SIGALRM, &sa, NULL);
  long long t0 = now_ns();
  child = fork();
  if (child < 0) { perror("fork"); return 2; }
  if (child == 0) {
    setpgid(0, 0);
    execv(argv[3], argv + 3);
    perror(argv[3]);
    _exit(127);
  }
  /* set on both sides, so the group exists before either may use it */
  setpgid(child, child);
  struct itimerval limit = { .it_value = { timeout_ms / 1000, (timeout_ms % 1000) * 1000 } };
  setitimer(ITIMER_REAL, &limit, NULL);
  /* wait for the exit without reaping: the unreaped child keeps its pid,
     and so its group id, from being reused while the group is killed */
  siginfo_t si;
  while (waitid(P_PID, child, &si, WEXITED | WNOWAIT) < 0)
    if (errno != EINTR) { perror("waitid"); return 2; }
  struct itimerval off = { { 0, 0 }, { 0, 0 } };
  setitimer(ITIMER_REAL, &off, NULL);
  kill(-child, SIGKILL);
  while (waitpid(child, &status, 0) < 0)
    if (errno != EINTR) { perror("waitpid"); return 2; }
  long long wall = now_ns() - t0;
  while (waitpid(-1, NULL, 0) > 0 || errno == EINTR)
    ;
  struct rusage ru;
  getrusage(RUSAGE_CHILDREN, &ru);
  FILE *out = fopen(argv[1], "w");
  if (!out) { perror(argv[1]); return 2; }
  fprintf(out, "%d %lld %.3f %ld\n",
          timed_out ? -1 : WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status),
          wall,
          (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3
            + (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3,
          ru.ru_maxrss);
  return fclose(out) == 0 ? 0 : 2;
}
