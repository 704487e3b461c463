/* systems/figure2.c with an initializing function that traps: shmget
 * returns 42 under InitCheck, so the division below divides by zero.
 * initcheck must report the failure (exit 1), not die of it.
 */

struct SHMData {
  double control;
  double track;
  double angle;
};
typedef struct SHMData SHMData;

SHMData *noncoreCtrl;
SHMData *feedback;
int shmLock;

extern void getFeedback(SHMData *f);
extern void sendControl(double out);
extern void Lock(int l);
extern void Unlock(int l);
extern void wait_period(int msecs);

void initComm()
/*** SafeFlow Annotation shminit ***/
{
  int shmid;
  void *shmStart;
  shmid = shmget(9000, 2 * sizeof(SHMData), 438);
  shmStart = shmat(shmid, (void *) 0, 0);
  shmid = shmid / (shmid - 42);
  feedback = (SHMData *) shmStart;
  noncoreCtrl = feedback + 1;
  InitCheck(shmStart, 2 * sizeof(SHMData));
  /*** SafeFlow Annotation
       assume(shmvar(feedback, sizeof(SHMData)))
       assume(shmvar(noncoreCtrl, sizeof(SHMData)))
       assume(noncore(feedback))
       assume(noncore(noncoreCtrl)) ***/
}

int checkSafety(SHMData *f, SHMData *nc)
{
  double t = f->track;
  double a = f->angle;
  double c = nc->control;
  if (c > 5.0 || c < -5.0) {
    return 0;
  }
  if (t * t + 4.0 * a * a > 1.0) {
    return 0;
  }
  return 1;
}

double decision(SHMData *f, double safeControl, SHMData *nc)
/*** SafeFlow Annotation assume(core(noncoreCtrl, 0, sizeof(SHMData))) ***/
{
  if (checkSafety(f, nc)) {
    return nc->control;
  }
  return safeControl;
}

void computeSafety(SHMData *f, double *safeControl)
{
  *safeControl = 0.0 - (1.2 * f->angle + 0.4 * f->track);
}

int main()
{
  double safeControl;
  double output;
  int steps = 0;
  initComm();
  while (steps < 1000) {
    getFeedback(feedback);
    computeSafety(feedback, &safeControl);
    Unlock(shmLock);
    wait_period(20);
    Lock(shmLock);
    output = decision(feedback, safeControl, noncoreCtrl);
    /*** SafeFlow Annotation assert(safe(output)) ***/
    sendControl(output);
    steps = steps + 1;
  }
  return 0;
}
